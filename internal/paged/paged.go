// Package paged provides Slab, the array the detector keeps its
// per-account and per-edge state in: indexed by a dense integer key,
// stored in fixed-size pages that are allocated on first touch and
// never move. Growing a Slab therefore never re-copies an element —
// the bytes allocated are the bytes retained, up to one partly used
// page — and a pointer into it stays valid for the Slab's lifetime.
package paged

const (
	pageShift = 10
	// PageSize is the number of elements in one page.
	PageSize = 1 << pageShift
)

// Slab is a sparse array of T with indices from 0. The zero value is
// empty and ready to use. Elements start as T's zero value and are
// never removed. A Slab is not safe for concurrent mutation;
// concurrent Peek and Each are safe.
type Slab[T any] struct {
	// pages is the page directory: nil where no index of the page has
	// been touched, so one outlier index costs one page plus directory
	// pointers, not an array up to it.
	pages []*[PageSize]T
}

// At returns a pointer to element i, allocating its page if this is
// the first touch. It panics when i is negative.
func (s *Slab[T]) At(i int) *T {
	p := i >> pageShift
	if p >= len(s.pages) {
		s.pages = append(s.pages, make([]*[PageSize]T, p+1-len(s.pages))...)
	}
	pg := s.pages[p]
	if pg == nil {
		pg = new([PageSize]T)
		s.pages[p] = pg
	}
	return &pg[i&(PageSize-1)]
}

// Peek returns a pointer to element i, or nil when no index on its
// page has ever been passed to At (negative i included).
func (s *Slab[T]) Peek(i int) *T {
	p := uint(i) >> pageShift
	if p >= uint(len(s.pages)) || s.pages[p] == nil {
		return nil
	}
	return &s.pages[p][i&(PageSize-1)]
}

// Each calls fn for every element of every allocated page, in index
// order — untouched elements of a touched page included.
func (s *Slab[T]) Each(fn func(i int, v *T)) {
	for p, pg := range s.pages {
		if pg == nil {
			continue
		}
		for j := range pg {
			fn(p<<pageShift|j, &pg[j])
		}
	}
}
