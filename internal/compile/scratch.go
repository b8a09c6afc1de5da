package compile

// Scratch is an empty placeholder kept so code that still assigns
// core.Framework.Scratch compiles. Every compile stage now pools its own
// reusable state (see Pool).
type Scratch struct{}

// NewScratch returns an empty Scratch.
//
// Deprecated: compile stages pool their buffers internally; a Scratch
// carries nothing and setting one has no effect.
func NewScratch() *Scratch { return &Scratch{} }
