// AllocsPerRun pins for the //dimatch:noalloc functions of this package.
// The noalloc analyzer is the static early warning; these tests are the
// runtime ground truth. cmd/di-lint -allocharness reports any annotated
// function missing from this file.
package bitset

import "testing"

var countSink uint64

func TestNoallocCount(t *testing.T) {
	s := New(1 << 12)
	for i := uint64(0); i < s.Len(); i += 7 {
		s.Set(i)
	}
	if n := testing.AllocsPerRun(100, func() {
		countSink = s.Count()
	}); n != 0 {
		t.Fatalf("(*Set).Count allocates %v times per run; //dimatch:noalloc requires 0", n)
	}
}
