package mapfix

import "testing"

// Test files are not checked: a float sum over a counter map is the
// shape of internal/cluster/telemetry_test.go, and a test that built
// output in map order would fail its own comparison.
func TestSum(t *testing.T) {
	var sum float64
	for _, v := range map[string]float64{"a": 1, "b": 2} {
		sum += v
	}
	if sum != 3 {
		t.Fatal(sum)
	}
}
