package compile

import "strings"

// Interner deduplicates string spellings. Kernel sources repeat the same
// identifiers (loop variables, buffer names, type names) thousands of
// times across compilations; interning makes every occurrence share one
// heap copy and turns the per-token allocation into a map probe. The
// zero value is ready to use.
//
// Not safe for concurrent use (it lives inside a pooled stage state,
// which one compilation owns at a time).
type Interner struct {
	m map[string]string
}

// InternString returns the canonical copy of s, typically a substring
// of the source text. The first sight stores a clone, so the interner
// never keeps a whole source alive.
func (in *Interner) InternString(s string) string {
	if c, ok := in.m[s]; ok {
		return c
	}
	if in.m == nil {
		in.m = make(map[string]string, 256)
	}
	c := strings.Clone(s)
	in.m[c] = c
	return c
}
