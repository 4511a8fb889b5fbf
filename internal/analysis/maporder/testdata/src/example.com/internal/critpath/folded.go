// Package critpath mirrors the folded-stack writer of
// internal/critpath/critpath.go (writeFoldedMap) with the defect the
// mutation audit planted there: the sort.Strings(stacks) call deleted,
// so the folded profile comes out in map order. The only test that sees
// it, TestCritpathBlameDeterminism, compares two same-seed runs in one
// process and failed 9 of 10 runs at GOMAXPROCS=4, so maporder is the
// only check that catches it every time.
package critpath

import (
	"fmt"
	"io"
)

func writeFoldedMap(w io.Writer, m map[string]int64) error {
	stacks := make([]string, 0, len(m))
	for s := range m {
		stacks = append(stacks, s) // want `append inside map iteration builds a slice in map order`
	}
	for _, s := range stacks {
		ns := (m[s] + 500) / 1000
		if ns <= 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", s, ns); err != nil {
			return err
		}
	}
	return nil
}
