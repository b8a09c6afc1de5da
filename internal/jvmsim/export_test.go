package jvmsim

// MaxFree exposes the free-list bound to the external tests.
const MaxFree = maxFree

// FreeArrays reports how many recycled arrays the VM's call frame holds.
func FreeArrays(vm *VM) int {
	if vm.frCall == nil {
		return 0
	}
	return len(vm.frCall.free)
}
