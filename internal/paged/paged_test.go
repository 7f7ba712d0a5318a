package paged

import "testing"

// slots is the number of elements the slab's allocated pages hold:
// Each visits every one of them.
func slots[T any](s *Slab[T]) int {
	n := 0
	s.Each(func(int, *T) { n++ })
	return n
}

// TestSlabPointersSurviveGrowth: an element never moves, so a pointer
// taken before the slab grew by many pages still addresses the element
// At returns afterwards.
func TestSlabPointersSurviveGrowth(t *testing.T) {
	var s Slab[int]
	first := s.At(3)
	*first = 42
	for i := 0; i < 64*PageSize; i += PageSize / 2 {
		*s.At(i + 5) = i
	}
	if s.At(3) != first || *first != 42 {
		t.Fatalf("element 3 moved or changed: %p → %p, value %d", first, s.At(3), *first)
	}
	if s.Peek(3) != first {
		t.Fatal("Peek and At disagree on element 3")
	}
	if got, want := slots(&s), 64*PageSize; got != want {
		t.Fatalf("%d slots after touching 64 pages, want %d", got, want)
	}
}

// TestSlabZeroValueAndPeek: the zero Slab is usable; Peek allocates
// nothing and is nil exactly on pages At never touched.
func TestSlabZeroValueAndPeek(t *testing.T) {
	var s Slab[struct{ a, b int64 }]
	for _, i := range []int{0, PageSize, 1 << 30, -1} {
		if s.Peek(i) != nil {
			t.Fatalf("Peek(%d) on an empty slab is not nil", i)
		}
	}
	if slots(&s) != 0 {
		t.Fatalf("empty slab has %d slots", slots(&s))
	}
	s.At(5*PageSize + 1).b = 9
	if slots(&s) != PageSize {
		t.Fatalf("one far element allocated %d slots, want one page (%d)", slots(&s), PageSize)
	}
	for _, i := range []int{0, 4*PageSize + 1, 6 * PageSize, -1} {
		if s.Peek(i) != nil {
			t.Fatalf("Peek(%d) is not nil though its page was never touched", i)
		}
	}
	if p := s.Peek(5 * PageSize); p == nil || *p != (struct{ a, b int64 }{}) {
		t.Fatalf("untouched neighbour on a touched page: %v, want a zero element", p)
	}
	if slots(&s) != PageSize {
		t.Fatal("Peek allocated a page")
	}
}

// TestSlabEachWalksAllocatedPagesInOrder: Each visits every slot of
// every allocated page, ascending, and skips the gaps.
func TestSlabEachWalksAllocatedPagesInOrder(t *testing.T) {
	var s Slab[int]
	*s.At(7*PageSize + 2) = 2
	*s.At(1) = 1
	visited, last, sum := 0, -1, 0
	s.Each(func(i int, v *int) {
		if i <= last {
			t.Fatalf("Each visited %d after %d", i, last)
		}
		if v != s.Peek(i) {
			t.Fatalf("Each passed a pointer that is not element %d", i)
		}
		visited, last, sum = visited+1, i, sum+*v
	})
	if visited != 2*PageSize || last != 8*PageSize-1 || sum != 3 {
		t.Fatalf("Each visited %d slots ending at %d with sum %d, want %d, %d, 3", visited, last, sum, 2*PageSize, 8*PageSize-1)
	}
}
