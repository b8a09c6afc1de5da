package tuner

import (
	"math/rand"

	"s2fa/internal/obs"
	"s2fa/internal/space"
)

// Evaluator scores one design point. For S2FA this wraps Merlin
// annotation plus the HLS estimator; for tests it can be any function.
type Evaluator func(space.Point) Result

// Driver runs the search loop: the bandit picks a technique, the
// technique proposes a point, the caller evaluates it, and credit flows
// back through Commit. Propose selects a batch of k distinct
// candidates, which models running k HLS evaluations on k CPU cores
// concurrently (the vanilla OpenTuner baseline in the paper evaluates
// the top-8 candidates per iteration on its 8 cores). Eval scores only
// injected seeds.
type Driver struct {
	Space *space.Space
	// Points gives every point its identity. Drivers of one run share
	// it with the run's other tables (see space.Table).
	Points     *space.Table
	DB         *DB
	Eval       Evaluator
	Techniques []Technique
	Bandit     *AUCBandit
	Rng        *rand.Rand

	// Trace, when set, receives per-iteration bandit telemetry (arm
	// selections with AUC scores, credit rewards) on track TID. Tracing
	// is read-only: it never draws from Rng or reorders proposals.
	Trace *obs.Trace
	TID   int

	ctx *Context
}

// NewDriver assembles a driver over s, identifying points in the table
// points (built over s or the space s was restricted from), with the
// default technique ensemble and bandit configuration.
func NewDriver(s *space.Space, points *space.Table, eval Evaluator, seed int64) *Driver {
	rng := rand.New(rand.NewSource(seed))
	techs := DefaultTechniques(rng)
	d := &Driver{
		Space:      s,
		Points:     points,
		DB:         NewDB(),
		Eval:       eval,
		Techniques: techs,
		Bandit:     NewAUCBandit(len(techs), 50, 0.05),
		Rng:        rng,
	}
	d.ctx = &Context{Space: s, Points: points, DB: d.DB, Rng: rng}
	return d
}

// InjectSeed evaluates a caller-provided starting point (paper §4.3.2
// seed generation) and records it without crediting any technique.
func (d *Driver) InjectSeed(pt space.Point) Result {
	id := d.Points.ID(pt)
	r := d.Eval(pt)
	r.Technique = "seed"
	d.DB.Add(id, r)
	for _, t := range d.Techniques {
		if s, ok := t.(Seedable); ok {
			s.Seed(d.ctx, r)
		}
	}
	return r
}

// Proposal is one not-yet-evaluated design point selected by Propose,
// remembering which technique it must be credited to on Commit (tech is
// -1 for the uniform random fallback) and the point's identity, which
// Propose computes once for every table that needs it.
type Proposal struct {
	Tech  int
	Point space.Point
	ID    space.ID
}

// Propose selects up to k distinct new design points without evaluating
// them: the bandit picks techniques, duplicate proposals are penalized,
// and the uniform fallback fills the remainder. The caller evaluates
// the points (possibly concurrently, on other goroutines) and feeds the
// results back through Commit in proposal order. Propose/Commit is the
// decomposition the concurrent DSE engine relies on: each scheduler
// worker owns its Driver exclusively, so proposal (which draws from
// this driver's Rng and mutates its bandit) stays isolated per worker
// while only the pure evaluation work is shared across goroutines.
func (d *Driver) Propose(k int) []Proposal {
	var batch []Proposal
	for len(batch) < k {
		found := false
		for attempt := 0; attempt < 16; attempt++ {
			ti := d.Bandit.Select()
			if d.Trace != nil {
				st := d.Bandit.Stats()[ti]
				d.Trace.EventT(d.TID, "tuner", "select",
					obs.Str("arm", d.Techniques[ti].Name()),
					obs.F64("auc", st.AUC),
					obs.F64("score", st.Score),
					obs.Int("uses", st.Uses))
			}
			pt, id := d.Techniques[ti].Propose(d.ctx)
			if d.DB.Seen(id) || inBatch(batch, id) {
				// Re-proposing an explored point wastes the slot; tell
				// the bandit so the technique loses credit.
				d.Bandit.Reward(ti, false)
				if d.Trace != nil {
					d.Trace.EventT(d.TID, "tuner", "reward",
						obs.Str("arm", d.Techniques[ti].Name()),
						obs.Bool("new_best", false),
						obs.Bool("duplicate", true))
				}
				continue
			}
			batch = append(batch, Proposal{Tech: ti, Point: pt, ID: id})
			found = true
			break
		}
		if !found {
			// Fall back to uniform sampling to keep the batch filled.
			pt, id := d.ctx.intern(d.Space.RandomPoint(d.Rng))
			if d.DB.Seen(id) || inBatch(batch, id) {
				break // space exhausted (tiny test spaces)
			}
			batch = append(batch, Proposal{Tech: -1, Point: pt, ID: id})
		}
	}
	return batch
}

// inBatch reports whether a proposal of batch has identity id. Batches
// hold at most a few points, so a scan beats a set.
func inBatch(batch []Proposal, id space.ID) bool {
	for i := range batch {
		if batch[i].ID == id {
			return true
		}
	}
	return false
}

// Commit records the evaluation result of one proposal: technique
// attribution, result database, feedback, and bandit credit. It returns
// the annotated result (Technique filled in) and whether it set a new
// driver-local best.
func (d *Driver) Commit(p Proposal, r Result) (Result, bool) {
	if p.Tech >= 0 {
		r.Technique = d.Techniques[p.Tech].Name()
	} else {
		r.Technique = "random-fill"
	}
	newBest := d.DB.Add(p.ID, r)
	if p.Tech >= 0 {
		d.Techniques[p.Tech].Feedback(d.ctx, p.ID, r)
		d.Bandit.Reward(p.Tech, newBest)
		if d.Trace != nil {
			d.Trace.EventT(d.TID, "tuner", "reward",
				obs.Str("arm", r.Technique),
				obs.Bool("new_best", newBest))
		}
	}
	return r, newBest
}
