package tuner

import (
	"math"
	"math/rand"
	"testing"

	"s2fa/internal/cir"
	"s2fa/internal/space"
)

// quadSpace builds a synthetic 4-parameter space whose objective is a
// convex bowl with minimum at known coordinates — a sanity harness for
// every technique.
func quadSpace() *space.Space {
	k := &cir.Kernel{
		Name: "syn", TaskLoopID: "L0",
		Body: cir.Block{
			&cir.Loop{ID: "L0", Var: "t",
				Lo: &cir.IntLit{K: cir.Int, Val: 0}, Hi: &cir.VarRef{K: cir.Int, Name: "N"}, Step: 1,
				Body: cir.Block{
					&cir.Loop{ID: "L1", Var: "i",
						Lo: &cir.IntLit{K: cir.Int, Val: 0}, Hi: &cir.IntLit{K: cir.Int, Val: 65}, Step: 1,
						Body: cir.Block{}},
				}},
		},
	}
	return space.Identify(k)
}

// step proposes up to k distinct new design points, evaluates them with
// the driver's evaluator and commits the results in proposal order: one
// iteration of the DSE scheduler's loop, without the scheduler.
func step(d *Driver, k int) []Result {
	batch := d.Propose(k)
	out := make([]Result, 0, len(batch))
	for _, p := range batch {
		r, _ := d.Commit(p, d.Eval(p.Point))
		out = append(out, r)
	}
	return out
}

// bowl returns an evaluator minimizing the squared ordinal distance to a
// target point.
func bowl(s *space.Space, target space.Point) Evaluator {
	return func(pt space.Point) Result {
		var d float64
		for i := range s.Params {
			p := &s.Params[i]
			diff := float64(p.Ordinal(pt[p.Name]) - p.Ordinal(target[p.Name]))
			d += diff * diff
		}
		return Result{Point: pt, Objective: d, Feasible: true, Minutes: 1}
	}
}

func targetOf(s *space.Space) space.Point {
	rng := rand.New(rand.NewSource(99))
	return s.RandomPoint(rng)
}

func TestDriverConvergesOnBowl(t *testing.T) {
	s := quadSpace()
	target := targetOf(s)
	d := NewDriver(s, space.NewTable(s), bowl(s, target), 1)
	for i := 0; i < 150; i++ {
		step(d, 1)
	}
	best := d.DB.Best()
	if best == nil {
		t.Fatal("no best found")
	}
	if best.Objective > 25 {
		t.Errorf("driver did not approach the optimum: best=%v", best.Objective)
	}
}

func TestDriverDedupesProposals(t *testing.T) {
	s := quadSpace()
	target := targetOf(s)
	d := NewDriver(s, space.NewTable(s), bowl(s, target), 2)
	seen := map[string]bool{}
	for i := 0; i < 60; i++ {
		for _, r := range step(d, 1) {
			key := r.Point.Key()
			if seen[key] {
				t.Fatalf("duplicate evaluation of %s", key)
			}
			seen[key] = true
		}
	}
}

func TestInjectSeedBecomesIncumbent(t *testing.T) {
	s := quadSpace()
	target := targetOf(s)
	d := NewDriver(s, space.NewTable(s), bowl(s, target), 3)
	r := d.InjectSeed(target.Clone())
	if r.Objective != 0 {
		t.Fatalf("seed objective = %v", r.Objective)
	}
	if best := d.DB.Best(); best == nil || best.Objective != 0 {
		t.Error("seed did not become the incumbent")
	}
	if r.Technique != "seed" {
		t.Errorf("seed technique label = %q", r.Technique)
	}
}

func TestInfeasibleNeverBest(t *testing.T) {
	s := quadSpace()
	eval := func(pt space.Point) Result {
		return Result{Point: pt, Objective: 1, Feasible: false, Minutes: 1}
	}
	d := NewDriver(s, space.NewTable(s), eval, 4)
	for i := 0; i < 20; i++ {
		step(d, 1)
	}
	if d.DB.Best() != nil {
		t.Error("infeasible result became the incumbent")
	}
}

func TestDBBestTracking(t *testing.T) {
	db := NewDB()
	if db.Add(0, Result{Point: space.Point{"a": 1}, Objective: 5, Feasible: true}) != true {
		t.Error("first feasible not newBest")
	}
	if db.Add(1, Result{Point: space.Point{"a": 2}, Objective: 9, Feasible: true}) {
		t.Error("worse result reported as newBest")
	}
	if !db.Add(2, Result{Point: space.Point{"a": 3}, Objective: 1, Feasible: true}) {
		t.Error("better result not reported as newBest")
	}
	if db.Best().Objective != 1 || db.Len() != 3 {
		t.Errorf("best=%v len=%d", db.Best().Objective, db.Len())
	}
	if !db.Seen(0) || db.Seen(42) {
		t.Error("Seen bookkeeping broken")
	}
}

func TestAUCBanditRewardsWinners(t *testing.T) {
	b := NewAUCBandit(3, 20, 0.05)
	// Exercise each arm once (infinite exploration bonus when unused).
	used := map[int]bool{}
	for i := 0; i < 3; i++ {
		arm := b.Select()
		used[arm] = true
		b.Reward(arm, false)
	}
	if len(used) != 3 {
		t.Fatalf("initial exploration covered %d arms", len(used))
	}
	// Arm 1 produces new bests; it should dominate selection.
	for i := 0; i < 30; i++ {
		b.Reward(1, true)
		b.Reward(0, false)
		b.Reward(2, false)
	}
	wins := 0
	for i := 0; i < 20; i++ {
		if b.Select() == 1 {
			wins++
		}
	}
	if wins < 15 {
		t.Errorf("winning arm selected only %d/20 times", wins)
	}
}

func TestAUCBanditWindowSlides(t *testing.T) {
	b := NewAUCBandit(1, 4, 0)
	for i := 0; i < 10; i++ {
		b.Reward(0, true)
	}
	for i := 0; i < 4; i++ {
		b.Reward(0, false)
	}
	// After the window fills with failures, credit decays to zero.
	if got := b.auc(0); got != 0 {
		t.Errorf("auc after failure window = %v", got)
	}
}

func TestPatternSearchClimbsLadder(t *testing.T) {
	s := quadSpace()
	// Objective: monotone decreasing in L0.parallel — a pure ladder.
	eval := func(pt space.Point) Result {
		v := float64(pt["L0.parallel"])
		return Result{Point: pt, Objective: 1000 - v, Feasible: true, Minutes: 1}
	}
	d := NewDriver(s, space.NewTable(s), eval, 5)
	d.Techniques = []Technique{NewPatternSearch()}
	d.Bandit = NewAUCBandit(1, 50, 0.05)
	d.ctx = &Context{Space: s, Points: d.Points, DB: d.DB, Rng: d.Rng}
	d.InjectSeed(s.AreaSeed())
	for i := 0; i < 40; i++ {
		step(d, 1)
	}
	best := d.DB.Best()
	if best.Point["L0.parallel"] < 128 {
		t.Errorf("pattern search stalled at parallel=%d", best.Point["L0.parallel"])
	}
}

func TestTechniquesProposeValidPoints(t *testing.T) {
	s := quadSpace()
	rng := rand.New(rand.NewSource(11))
	db := NewDB()
	ctx := &Context{Space: s, Points: space.NewTable(s), DB: db, Rng: rng}
	target := targetOf(s)
	eval := bowl(s, target)
	for _, tech := range DefaultTechniques(rng) {
		for i := 0; i < 30; i++ {
			pt, id := tech.Propose(ctx)
			if err := s.Validate(pt); err != nil {
				t.Fatalf("%s proposed invalid point: %v", tech.Name(), err)
			}
			r := eval(pt)
			db.Add(id, r)
			tech.Feedback(ctx, id, r)
		}
	}
}

func TestSeedableTechniques(t *testing.T) {
	s := quadSpace()
	rng := rand.New(rand.NewSource(12))
	db := NewDB()
	ctx := &Context{Space: s, Points: space.NewTable(s), DB: db, Rng: rng}
	target := targetOf(s)
	seed := Result{Point: target.Clone(), Objective: 0, Feasible: true}
	n := 0
	for _, tech := range DefaultTechniques(rng) {
		if sd, ok := tech.(Seedable); ok {
			sd.Seed(ctx, seed)
			n++
		}
	}
	if n < 3 {
		t.Errorf("only %d techniques are seedable", n)
	}
}

func TestOrdinalEncodingRoundTrip(t *testing.T) {
	s := quadSpace()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		pt := s.RandomPoint(rng)
		back := pointFromOrdinals(s, ordinalPoint(s, pt))
		for k, v := range pt {
			if back[k] != v {
				t.Fatalf("roundtrip changed %s: %d -> %d", k, v, back[k])
			}
		}
	}
	// Out-of-range ordinals clamp.
	ords := make([]float64, len(s.Params))
	for i := range ords {
		ords[i] = math.Inf(1)
	}
	pt := pointFromOrdinals(s, ords)
	if err := s.Validate(pt); err != nil {
		t.Errorf("clamped point invalid: %v", err)
	}
}
