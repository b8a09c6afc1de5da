package compile

import "testing"

type node struct {
	id   int
	name string
}

// owns reports whether p points into one of the slab's chunks.
func (s *Slab[T]) owns(p *T) bool {
	for _, c := range s.chunks {
		for j := range c {
			if &c[j] == p {
				return true
			}
		}
	}
	return false
}

func TestSlabNeverMovesValues(t *testing.T) {
	var s Slab[node]
	const n = 3*slabMinChunk + 5 // spans several chunks
	ptrs := make([]*node, n)
	for i := range ptrs {
		ptrs[i] = s.New()
		*ptrs[i] = node{id: i + 1, name: "x"}
	}
	seen := map[*node]bool{}
	for i, p := range ptrs {
		if seen[p] {
			t.Fatalf("value %d handed out twice", i)
		}
		seen[p] = true
		if !s.owns(p) {
			t.Fatalf("value %d no longer lives in the slab's chunks", i)
		}
		if p.id != i+1 {
			t.Fatalf("value %d changed to %+v after later allocations", i, *p)
		}
	}
}

func TestSlabResetZeroesAndRecycles(t *testing.T) {
	var s Slab[node]
	const n = 2*slabMinChunk + 7
	first := make([]*node, n)
	for i := range first {
		first[i] = s.New()
		*first[i] = node{id: i + 1, name: "stale"}
	}
	chunks := len(s.chunks)
	s.Reset()
	for i := 0; i < n; i++ {
		p := s.New()
		if p != first[i] {
			t.Fatalf("allocation %d after Reset did not recycle the same slot", i)
		}
		if *p != (node{}) {
			t.Fatalf("allocation %d after Reset is not zeroed: %+v", i, *p)
		}
	}
	if len(s.chunks) != chunks {
		t.Errorf("re-allocating the same count grew the slab from %d to %d chunks", chunks, len(s.chunks))
	}
}
