package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"

	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/ccache"
	"s2fa/internal/cir"
	"s2fa/internal/compile"
	"s2fa/internal/core"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
)

// edit-compile: op i is one core.Framework.Compile of the next source in
// an edit-loop stream, through one shared compile cache. 90% of the
// sources are Zipf(1.1)-distributed over a hot set (the 12 app sources
// and 64 generated kernels); 10% are generated kernels the cache has
// never seen. The hot set is the project being edited and is the same
// for every seed; the seed draws the stream and its new kernels. Every
// editSessionOps ops the stream starts a new session: a new framework
// and cache, loaded with the hot set before its first op, which bounds
// the cache's memory however long the run.
var editWorkload = &workload{name: "edit-compile", round: 1, gen: genEdit}

const (
	editHot        = 64
	editHotSeed    = -1 // no run seed generates these kernels
	editCold       = 512
	editSessionOps = 4096
	editColdP      = 0.10
	editZipfS      = 1.1
)

type editInst struct {
	seed int64
	// hot is in Zipf rank order: the apps sit at fixed ranks 1, 7, 13, ...
	// so every seed sees the same mix of app sizes.
	hot  []string
	cold []string
	// want maps each source to the SHA-256 of its uncached compile's
	// rendered HLS C.
	want map[string][32]byte
}

func genEdit(seed int64) (instance, error) {
	in := &editInst{seed: seed}
	gen := kdslgen.Generate(editHotSeed, editHot)
	as := apps.All()
	for r := 0; len(in.hot) < editHot+len(as); r++ {
		if r%6 == 1 && r/6 < len(as) {
			in.hot = append(in.hot, as[r/6].Source)
			continue
		}
		in.hot = append(in.hot, gen[0].Source)
		gen = gen[1:]
	}
	for _, k := range kdslgen.Generate(seed, editCold) {
		in.cold = append(in.cold, k.Source)
	}
	return in, nil
}

// schedule returns the sources of session s's ops.
func (in *editInst) schedule(s int) []string {
	rng := rand.New(rand.NewSource(in.seed*5_000_011 + int64(s)))
	zipf := rand.NewZipf(rng, editZipfS, 1, uint64(len(in.hot)-1))
	cold := rng.Perm(len(in.cold))
	out := make([]string, editSessionOps)
	for i := range out {
		if rng.Float64() < editColdP && len(cold) > 0 {
			out[i] = in.cold[cold[0]]
			cold = cold[1:]
			continue
		}
		out[i] = in.hot[zipf.Uint64()]
	}
	return out
}

func (in *editInst) digest() string {
	d := newDigester(editWorkload.name)
	for _, srcs := range [][]string{in.hot, in.cold, in.schedule(0)} {
		d.int(int64(len(srcs)))
		for _, s := range srcs {
			d.str(s)
		}
	}
	return d.sum()
}

// prepare compiles every source once without the cache: the reference
// each op's kernel is compared with.
func (in *editInst) prepare() error {
	in.want = map[string][32]byte{}
	for _, src := range append(append([]string(nil), in.hot...), in.cold...) {
		cls, err := kdsl.CompileSource(src)
		if err != nil {
			return err
		}
		k, err := b2c.Compile(cls)
		if err != nil {
			return err
		}
		in.want[src] = sha256.Sum256([]byte(cir.Print(k)))
	}
	return nil
}

func (in *editInst) setup(tr *tracer) (session, error) {
	s := &editSession{in: in, tr: tr}
	if err := s.start(0); err != nil {
		return nil, err
	}
	return s, nil
}

type editSession struct {
	in    *editInst
	tr    *tracer
	f     *core.Framework
	n     int // current session
	srcs  []string
	stats ccache.Stats // counters of finished sessions
	// missSrcs are the sources the traced pass compiled cold.
	missSrcs []string
}

// start begins session n: a new framework and cache, loaded with the
// hot set.
func (s *editSession) start(n int) error {
	if s.f != nil {
		st := s.f.Cache.Stats()
		s.stats.Poisoned += st.Poisoned
	}
	f := core.New()
	f.Cache = ccache.New()
	f.Scratch = compile.NewScratch()
	for _, src := range s.in.hot {
		if _, _, err := f.Compile(src); err != nil {
			return err
		}
	}
	if s.tr != nil {
		f.Trace = s.tr.obs
	}
	s.f, s.n, s.srcs = f, n, s.in.schedule(n)
	return nil
}

func (s *editSession) op(i int) opResult {
	if n := i / editSessionOps; n != s.n {
		if err := s.start(n); err != nil {
			return opResult{err: err}
		}
	}
	src := s.srcs[i%editSessionOps]
	before := s.f.Cache.Stats().Misses
	c := &clock{tr: s.tr}
	var k *cir.Kernel
	var err error
	c.call("core.compile", func() { _, k, err = s.f.Compile(src) })
	label := "hit"
	if s.f.Cache.Stats().Misses != before {
		label = "miss"
		if s.tr != nil {
			s.missSrcs = append(s.missSrcs, src)
		}
	}
	if err == nil && sha256.Sum256([]byte(cir.Print(k))) != s.in.want[src] {
		err = fmt.Errorf("op %d (%s): the served kernel differs from an uncached compile of its source", i, label)
	}
	return c.result(label, err)
}

func (in *editInst) layers(r *layerRun) (map[string]metric, error) {
	plain, traced := r.plainS.(*editSession), r.traceS.(*editSession)
	m := layerMetrics{}
	hits, misses := r.plain.opUS("hit"), r.plain.opUS("miss")
	m.set("ccache.hit_frac", "ratio", float64(len(hits))/float64(len(hits)+len(misses)))
	m.quantile("ccache.hit_us_p50", "us", hits, 0.5)
	m.quantile("ccache.miss_us_p50", "us", misses, 0.5)
	m.set("ccache.poisoned", "count", float64(plain.stats.Poisoned+plain.f.Cache.Stats().Poisoned))
	m.quantile("b2c.compile_us_p50", "us", r.tr.durations("b2c.compile"), 0.5)
	m.quantile("lint.gate_us_p50", "us", r.tr.durations("lint.gate"), 0.5)
	if err := replayCompile(m, traced.missSrcs, r.replayDeadline); err != nil {
		return nil, err
	}
	return m, nil
}
