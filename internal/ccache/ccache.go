// Package ccache is the content-addressed compile cache of the S2FA
// pipeline. The unit of caching is one verified kernel class: the
// fingerprint is the SHA-256 of the canonical bytecode encoding plus the
// abstract-interpretation fact digest (see FingerprintOf), and a hit
// returns the cached verified CIR kernel — the back half of the
// pipeline (b2c decompilation,
// structuring, flattening and its lint gate) is skipped. The cache
// holds no DSE analyses: the DSE analyzes the kernel it explores itself
// (hls.Analyze).
//
// Two layers address different costs:
//
//   - the source memo maps SHA-256(source) to the compiled class and
//     its fingerprint, so a repeated source string skips the frontend
//     (lex/parse/bytecode/verify/absint) entirely;
//   - the semantic layer maps Fingerprint to the cached Entry, so two
//     different source texts compiling to identical bytecode (renamed
//     files, reformatted kernels) still share one b2c run.
//
// Every hit re-derives SHA-256(cir.Print(kernel)) and compares it to
// the checksum stored when the entry was built. A mismatch means the
// cached kernel was mutated or corrupted after insertion ("poisoned"):
// the entry is evicted, the incident is counted (ccache.poisoned) and
// traced as a ccache/poisoned instant, and the caller falls back to a
// fresh compile. Concurrent misses on one
// fingerprint are single-flighted: the first caller compiles, the rest
// block on its result.
//
// The cache is safe for concurrent use.
package ccache

import (
	"crypto/sha256"
	"sync"

	"s2fa/internal/absint"
	"s2fa/internal/b2c"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/kdsl"
	"s2fa/internal/obs"
)

// Entry is one cached compilation: the verified kernel b2c derives from
// a class. It is shared across hits — callers must treat it as
// immutable (mutation is detected as poisoning on the next hit, not
// tolerated).
type Entry struct {
	Fingerprint Fingerprint
	// Kernel is the verified HLS-C IR produced by b2c.
	Kernel *cir.Kernel

	// checksum is SHA-256 of cir.Print(Kernel) at insertion time; bytes
	// is the length of that rendering (the size proxy behind the
	// ccache.bytes counter).
	checksum [32]byte
	bytes    int
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	// SourceHits served both frontend and backend from the memo layer.
	SourceHits int64
	// SemanticHits ran the frontend but served b2c from an entry with
	// the same fingerprint.
	SemanticHits int64
	// Misses ran the full pipeline.
	Misses int64
	// Poisoned counts checksum mismatches (each also evicts the entry).
	Poisoned int64
	// Bytes sums the rendered-kernel size of every stored entry.
	Bytes int64
}

// Hits is the total over both hit layers.
func (s Stats) Hits() int64 { return s.SourceHits + s.SemanticHits }

type sourceMemo struct {
	cls *bytecode.Class
	fp  Fingerprint
}

// flight is one in-progress compilation other callers can wait on.
type flight struct {
	done chan struct{}
	e    *Entry
	err  error
}

// Cache is the content-addressed compile cache. The zero value is not
// usable; create with New.
type Cache struct {
	mu       sync.Mutex
	source   map[[32]byte]sourceMemo
	entries  map[Fingerprint]*Entry
	inflight map[Fingerprint]*flight
	stats    Stats
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		source:   map[[32]byte]sourceMemo{},
		entries:  map[Fingerprint]*Entry{},
		inflight: map[Fingerprint]*flight{},
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CompileSource compiles kernel source through the cache. On a source
// memo hit the frontend and backend are both skipped; on a semantic hit
// the frontend runs (the fingerprint needs bytecode + facts) but b2c
// is served from the cache; on a miss the full
// pipeline runs and the result is stored. tr receives ccache.* counters
// and, on poisoning, a recorder-visible instant; both may be nil.
func (c *Cache) CompileSource(src string, tr *obs.Trace) (*bytecode.Class, *Entry, error) {
	key := sha256.Sum256([]byte(src))
	c.mu.Lock()
	memo, ok := c.source[key]
	var e *Entry
	if ok {
		e = c.entries[memo.fp]
	}
	c.mu.Unlock()
	if e != nil && c.verify(e, tr) {
		c.mu.Lock()
		c.stats.SourceHits++
		c.mu.Unlock()
		tr.Count("ccache.hits", 1)
		return memo.cls, e, nil
	}

	cls, err := kdsl.CompileSource(src)
	if err != nil {
		return nil, nil, err
	}
	e, err = c.CompileClass(cls, tr)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	c.source[key] = sourceMemo{cls: cls, fp: e.Fingerprint}
	c.mu.Unlock()
	return cls, e, nil
}

// CompileClass compiles an already-assembled class through the semantic
// layer of the cache (no source memo involved).
func (c *Cache) CompileClass(cls *bytecode.Class, tr *obs.Trace) (*Entry, error) {
	facts, err := absint.AnalyzeClass(cls)
	if err != nil {
		return nil, err
	}
	fp := FingerprintOf(cls, facts)
	for {
		c.mu.Lock()
		if e := c.entries[fp]; e != nil {
			c.mu.Unlock()
			if !c.verify(e, tr) {
				continue // poisoned entry evicted; retry as a miss
			}
			c.mu.Lock()
			c.stats.SemanticHits++
			c.mu.Unlock()
			tr.Count("ccache.hits", 1)
			return e, nil
		}
		if fl := c.inflight[fp]; fl != nil {
			c.mu.Unlock()
			<-fl.done
			if fl.err != nil {
				return nil, fl.err
			}
			// The flight's result was stored (and checksummed) moments
			// ago; serve it as a semantic hit without re-verification.
			c.mu.Lock()
			c.stats.SemanticHits++
			c.mu.Unlock()
			tr.Count("ccache.hits", 1)
			return fl.e, nil
		}
		fl := &flight{done: make(chan struct{})}
		c.inflight[fp] = fl
		c.mu.Unlock()

		e, err := compileMiss(cls, facts, fp, tr)
		c.mu.Lock()
		delete(c.inflight, fp)
		if err == nil {
			c.entries[fp] = e
			c.stats.Misses++
			c.stats.Bytes += int64(e.bytes)
		}
		c.mu.Unlock()
		fl.e, fl.err = e, err
		close(fl.done)
		if err != nil {
			return nil, err
		}
		tr.Count("ccache.misses", 1)
		tr.Count("ccache.bytes", int64(e.bytes))
		return e, nil
	}
}

// compileMiss runs the back half of the pipeline: b2c on the verified
// class (reusing the already-computed facts), then the checksum of the
// kernel it produced.
func compileMiss(cls *bytecode.Class, facts *absint.ClassFacts, fp Fingerprint, tr *obs.Trace) (*Entry, error) {
	k, err := b2c.CompileVerified(cls, facts, tr)
	if err != nil {
		return nil, err
	}
	printed := cir.Print(k)
	e := &Entry{
		Fingerprint: fp,
		Kernel:      k,
		checksum:    sha256.Sum256([]byte(printed)),
		bytes:       len(printed),
	}
	return e, nil
}

// verify re-derives the entry's checksum and compares it to the stored
// one. On mismatch the entry is evicted, the poisoning is counted and
// traced as a ccache/poisoned instant, and false is returned so the caller
// recompiles from scratch.
func (c *Cache) verify(e *Entry, tr *obs.Trace) bool {
	sum := sha256.Sum256([]byte(cir.Print(e.Kernel)))
	if sum == e.checksum {
		return true
	}
	c.mu.Lock()
	if c.entries[e.Fingerprint] == e {
		delete(c.entries, e.Fingerprint)
	}
	c.stats.Poisoned++
	c.mu.Unlock()
	tr.Count("ccache.poisoned", 1)
	tr.Event("ccache", "poisoned",
		obs.Str("kernel", e.Kernel.Name),
		obs.Str("fingerprint", e.Fingerprint.Short()))
	return false
}
