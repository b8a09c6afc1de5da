package jvmsim

// MaxFree exposes the free-list bound to the external tests.
const MaxFree = maxFree

// FreeArrays reports how many recycled arrays the VM holds.
func FreeArrays(vm *VM) int { return len(vm.free) }

// Unlowered counts the blocks of p's methods that the analysis left to
// the interpreter.
func Unlowered(p *Program) int {
	n := 0
	for _, cm := range []*compiledMethod{p.call, p.reduce} {
		if cm == nil {
			continue
		}
		for _, b := range cm.blocks {
			if !b.lowered {
				n++
			}
		}
	}
	return n
}
