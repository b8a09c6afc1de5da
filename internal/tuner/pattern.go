package tuner

import "s2fa/internal/space"

// PatternSearch is a deterministic hill climber in the style of
// OpenTuner's pattern-search technique: starting from the incumbent best
// configuration, it cycles through the parameters proposing structured
// moves — halving/doubling for numeric factors (the natural ladder for
// HLS parallel/tile factors) and adjacent values for enumerations — and
// repeats the last successful move first (classic pattern search keeps
// walking a profitable direction). The multi-armed bandit decides how
// much of the budget it deserves, like every other technique.
type PatternSearch struct {
	cursor int
	// Stickiness: when the previous proposal improved on the incumbent
	// it was derived from, retry the same (param, move) slot first.
	stickySlot  int
	sticky      bool
	pendingID   space.ID
	pendingSlot int
	pendingObj  float64
}

// NewPatternSearch returns the technique.
func NewPatternSearch() *PatternSearch { return &PatternSearch{stickySlot: -1, pendingID: noID} }

// Name implements Technique.
func (p *PatternSearch) Name() string { return "pattern-search" }

// Propose implements Technique.
func (p *PatternSearch) Propose(ctx *Context) (space.Point, space.ID) {
	best := ctx.DB.Best()
	if best == nil {
		return ctx.intern(ctx.Space.RandomPoint(ctx.Rng))
	}
	nSlots := 4 * len(ctx.Space.Params)
	if p.sticky {
		if cand, id, ok := p.candidate(ctx, best.Point, p.stickySlot); ok {
			p.remember(id, p.stickySlot, best.Objective)
			return cand, id
		}
		p.sticky = false
	}
	for tries := 0; tries < nSlots; tries++ {
		slot := (p.cursor + tries) % nSlots
		cand, id, ok := p.candidate(ctx, best.Point, slot)
		if !ok {
			continue
		}
		p.cursor = (slot + 1) % nSlots
		p.remember(id, slot, best.Objective)
		return cand, id
	}
	// Neighborhood exhausted: jump.
	return ctx.intern(mutate(ctx, best.Point, 2))
}

// candidate builds the point for one (param, move) slot and its
// identity; ok=false when the move is a no-op or already explored.
func (p *PatternSearch) candidate(ctx *Context, base space.Point, slot int) (space.Point, space.ID, bool) {
	if slot < 0 || slot >= 4*len(ctx.Space.Params) {
		return nil, noID, false
	}
	prm := &ctx.Space.Params[slot/4]
	move := slot % 4
	cur := base[prm.Name]
	var next int
	switch move {
	case 0:
		next = prm.Clamp(cur * 2)
	case 1:
		next = prm.Clamp(cur / 2)
	case 2:
		next = prm.ValueAt(minI(prm.Size()-1, maxI(0, prm.Ordinal(cur)+1)))
	default:
		next = prm.ValueAt(minI(prm.Size()-1, maxI(0, prm.Ordinal(cur)-1)))
	}
	if next == cur {
		return nil, noID, false
	}
	cand := base.Clone()
	cand[prm.Name] = next
	id := ctx.Points.ID(cand)
	if ctx.DB.Seen(id) {
		return nil, noID, false
	}
	return cand, id, true
}

func (p *PatternSearch) remember(id space.ID, slot int, baseObj float64) {
	p.pendingID = id
	p.pendingSlot = slot
	p.pendingObj = baseObj
}

// Feedback implements Technique: a move that beat the incumbent it was
// derived from becomes sticky.
func (p *PatternSearch) Feedback(ctx *Context, id space.ID, r Result) {
	if id != p.pendingID {
		return
	}
	p.pendingID = noID
	if r.Feasible && r.Objective < p.pendingObj {
		p.sticky = true
		p.stickySlot = p.pendingSlot
	} else if p.sticky && p.pendingSlot == p.stickySlot {
		p.sticky = false
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
