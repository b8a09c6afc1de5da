package space

import (
	"encoding/binary"
	"math"
	"sync"
)

// Point identity. Every DSE table — the tuner's result databases and
// technique bookkeeping, the prune guard, the evaluator memos — keys on
// one identity per point rather than on Key(), which ranges over the
// map, sorts the names and formats every value on each call.
//
// The identity code of a complete point (one int32 value for each of the
// space's parameters and no other name) is a tag byte followed by every
// value as a little-endian int32, in Params order. Restrict keeps that
// order, so a point has the same code in the full space and in every
// partition's sub-box, which is what lets partitions share the guard and
// the memo. Values are encoded rather than ordinals for the same reason:
// a sub-box renumbers its ordinals. Any other point — partial, carrying
// a name the space does not have, or a value outside int32 — is coded as
// a second tag byte followed by its Key(), so the two forms never
// collide and two codes are equal exactly when the two Keys are.
const (
	codeVector byte = 'v'
	codeKey    byte = 'k'
)

// AppendCode appends pt's identity code to dst and returns the extended
// buffer.
func (s *Space) AppendCode(dst []byte, pt Point) []byte {
	if len(pt) == len(s.Params) {
		out := append(dst, codeVector)
		complete := true
		for i := range s.Params {
			v, ok := pt[s.Params[i].Name]
			if !ok || v < math.MinInt32 || v > math.MaxInt32 {
				complete = false
				break
			}
			out = binary.LittleEndian.AppendUint32(out, uint32(int32(v)))
		}
		if complete {
			return out
		}
		dst = out[:len(dst)]
	}
	return append(append(dst, codeKey), pt.Key()...)
}

// ID is a point's dense identity in one Table: the first point the table
// sees is 0, the next new one 1, and so on.
type ID int32

// Table interns the points of one space and its Restrict sub-boxes into
// dense IDs, so one DSE run computes each point's identity once per use
// instead of building a Key() string for every table it touches. Looking
// up a point the table already holds does not allocate. A Table is safe
// for concurrent use.
type Table struct {
	sp  *Space
	mu  sync.Mutex
	ids map[string]ID
	buf []byte
}

// NewTable returns an empty table over s's parameter order.
func NewTable(s *Space) *Table {
	return &Table{sp: s, ids: map[string]ID{}}
}

// ID returns pt's identity, interning pt if the table has not seen it.
func (t *Table) ID(pt Point) ID {
	t.mu.Lock()
	t.buf = t.sp.AppendCode(t.buf[:0], pt)
	id, ok := t.ids[string(t.buf)]
	if !ok {
		if len(t.ids) == math.MaxInt32 {
			t.mu.Unlock()
			panic("space: point table full")
		}
		id = ID(len(t.ids))
		t.ids[string(t.buf)] = id
	}
	t.mu.Unlock()
	return id
}

// IDSet is a set of one Table's IDs, kept as a bitset over the dense
// IDs. The zero value is empty.
type IDSet struct{ words []uint64 }

// Has reports whether id is in the set.
func (s *IDSet) Has(id ID) bool {
	w := int(id) >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(id)&63)) != 0
}

// Add puts id in the set.
func (s *IDSet) Add(id ID) {
	w := int(id) >> 6
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	s.words[w] |= 1 << (uint(id) & 63)
}
