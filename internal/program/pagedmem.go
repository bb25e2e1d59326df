package program

import (
	"iter"
	"maps"
	"slices"
)

// PagedMem is a sparse uint64→uint64 store used where the simulator used
// to reach for map[uint64]uint64 on a hot path (the functional executor's
// memory, the ideal DDT) and for a program's initial memory image: values
// live in fixed-size pages found through a small map, with the
// last-touched page cached so the strided and looping access patterns
// the workloads generate stay off the map entirely.
//
// Load and Store update that cache, so even reads need exclusive
// access. Clone and All leave it alone: any number of goroutines may
// call them at once on a PagedMem that nobody writes.
type PagedMem struct {
	pages    map[uint64]*memPage
	lastKey  uint64
	lastPage *memPage
}

// pagedMemBits sets the page size: 4096 words (32KB of simulated memory)
// per page.
const pagedMemBits = 12

type memPage struct {
	words [1 << pagedMemBits]uint64
	// present marks stored words, one bit each, so Load can distinguish
	// a stored 0 from an untouched word.
	present [1 << pagedMemBits / 64]uint64
}

// NewPagedMem builds an empty store.
func NewPagedMem() *PagedMem {
	return &PagedMem{pages: make(map[uint64]*memPage)}
}

func (m *PagedMem) page(key uint64, create bool) *memPage {
	pk := key >> pagedMemBits
	if m.lastPage != nil && m.lastKey == pk {
		return m.lastPage
	}
	pg, ok := m.pages[pk]
	if !ok {
		if !create {
			return nil
		}
		pg = new(memPage)
		m.pages[pk] = pg
	}
	m.lastKey, m.lastPage = pk, pg
	return pg
}

// Load returns the value stored at key, with ok reporting whether the
// key was ever stored.
func (m *PagedMem) Load(key uint64) (uint64, bool) {
	pg := m.page(key, false)
	if pg == nil {
		return 0, false
	}
	off := key & (1<<pagedMemBits - 1)
	if pg.present[off/64]>>(off%64)&1 == 0 {
		return 0, false
	}
	return pg.words[off], true
}

// LoadZero returns the value stored at key, or 0 when absent (the map
// read semantics the executor's memory wants).
func (m *PagedMem) LoadZero(key uint64) uint64 {
	v, _ := m.Load(key)
	return v
}

// Store records value at key.
func (m *PagedMem) Store(key, value uint64) {
	pg := m.page(key, true)
	off := key & (1<<pagedMemBits - 1)
	pg.words[off] = value
	pg.present[off/64] |= 1 << (off % 64)
}

// Clone returns an independent copy of m, page by page.
func (m *PagedMem) Clone() *PagedMem {
	c := &PagedMem{pages: make(map[uint64]*memPage, len(m.pages))}
	for pk, pg := range m.pages {
		cp := new(memPage)
		*cp = *pg
		c.pages[pk] = cp
	}
	return c
}

// All yields every stored key and its value in ascending key order.
func (m *PagedMem) All() iter.Seq2[uint64, uint64] {
	return func(yield func(key, value uint64) bool) {
		for _, pk := range slices.Sorted(maps.Keys(m.pages)) {
			pg := m.pages[pk]
			for off := range pg.words {
				if pg.present[off/64]>>(off%64)&1 != 0 && !yield(pk<<pagedMemBits|uint64(off), pg.words[off]) {
					return
				}
			}
		}
	}
}
