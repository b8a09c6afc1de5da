// Package tuner is an OpenTuner-style program autotuning framework (paper
// §4.2): an ensemble of reinforcement-learning search techniques — uniform
// greedy mutation, a differential-evolution genetic algorithm, particle
// swarm optimization, and simulated annealing — assembled under a
// multi-armed bandit meta-technique that allocates design points to
// whichever technique has recently been effective, rewarding techniques
// that find high-quality points and starving those that do not.
package tuner

import (
	"math"
	"math/rand"

	"s2fa/internal/space"
)

// Result is the outcome of evaluating one design point.
type Result struct {
	Point space.Point
	// Objective is the quantity minimized (S2FA: estimated kernel
	// seconds). Infeasible points carry +Inf.
	Objective float64
	Feasible  bool
	// Minutes is the evaluation cost (HLS synthesis wall-clock) charged
	// to the DSE virtual clock.
	Minutes float64
	// Technique records which search technique proposed the point.
	Technique string
	// Meta carries evaluator-specific detail (e.g. the HLS report).
	Meta any
}

// DB stores every evaluated result and tracks the best feasible point.
// It identifies points by their ID in the driver's point table.
type DB struct {
	Results []Result
	seen    space.IDSet
	best    *Result
}

// NewDB returns an empty result database.
func NewDB() *DB {
	return &DB{}
}

// Add records the result of the point with identity id, updating the
// incumbent. It returns true when the result is a new global best.
func (db *DB) Add(id space.ID, r Result) bool {
	db.Results = append(db.Results, r)
	db.seen.Add(id)
	if r.Feasible && (db.best == nil || r.Objective < db.best.Objective) {
		cp := r
		db.best = &cp
		return true
	}
	return false
}

// Best returns the incumbent feasible result, or nil.
func (db *DB) Best() *Result {
	return db.best
}

// Seen reports whether the point with identity id was already evaluated.
func (db *DB) Seen(id space.ID) bool { return db.seen.Has(id) }

// Len returns the number of evaluated results.
func (db *DB) Len() int { return len(db.Results) }

// Context is what techniques see when proposing points. Points is the
// table that gives every point its identity; the DB and all technique
// bookkeeping key on it.
type Context struct {
	Space  *space.Space
	Points *space.Table
	DB     *DB
	Rng    *rand.Rand
}

// intern pairs pt with its identity, the form Propose returns.
func (c *Context) intern(pt space.Point) (space.Point, space.ID) {
	return pt, c.Points.ID(pt)
}

// Seedable is implemented by techniques whose internal state (population,
// swarm, current point) can be primed with an externally evaluated seed
// configuration, the way OpenTuner seeds its techniques with
// user-provided configurations.
type Seedable interface {
	Seed(ctx *Context, r Result)
}

// Technique is one search algorithm in the ensemble.
type Technique interface {
	Name() string
	// Propose returns the next design point to evaluate (never nil; fall
	// back to a random point when the technique has no better idea) and
	// its identity in ctx.Points.
	Propose(ctx *Context) (space.Point, space.ID)
	// Feedback delivers the evaluation result of a point this technique
	// proposed, with the point's identity.
	Feedback(ctx *Context, id space.ID, r Result)
}

// noID marks a technique's pending slot as empty; table IDs are never
// negative.
const noID space.ID = -1

// mutate returns a copy of pt with n randomly chosen parameters replaced
// by uniform random domain values.
func mutate(ctx *Context, pt space.Point, n int) space.Point {
	out := pt.Clone()
	for i := 0; i < n; i++ {
		p := &ctx.Space.Params[ctx.Rng.Intn(len(ctx.Space.Params))]
		out[p.Name] = p.Random(ctx.Rng)
	}
	return out
}

// DefaultTechniques returns the ensemble named in the paper (§4.2) plus
// OpenTuner's pattern-search hill climber, which the bandit arbitrates
// like the rest.
func DefaultTechniques(rng *rand.Rand) []Technique {
	return []Technique{
		NewGreedyMutation(),
		NewDifferentialEvolution(12, 0.7, 0.9),
		NewPSO(10),
		NewAnnealer(2.0, 0.97),
		NewPatternSearch(),
	}
}

func ordinalPoint(s *space.Space, pt space.Point) []float64 {
	out := make([]float64, len(s.Params))
	for i := range s.Params {
		p := &s.Params[i]
		out[i] = float64(p.Ordinal(pt[p.Name]))
	}
	return out
}

func pointFromOrdinals(s *space.Space, ords []float64) space.Point {
	pt := make(space.Point, len(s.Params))
	for i := range s.Params {
		p := &s.Params[i]
		o := int(math.Round(ords[i]))
		if o < 0 {
			o = 0
		}
		if o >= p.Size() {
			o = p.Size() - 1
		}
		pt[p.Name] = p.ValueAt(o)
	}
	return pt
}
