package spawnbad

import "testing"

// Test files are not checked: a host-side reply counter drained by the
// test itself never runs inside the scheduler (the shape of
// internal/storage/storage_test.go).
func TestReplies(t *testing.T) {
	replies := make(chan struct{}, 1)
	replies <- struct{}{}
	<-replies
}
