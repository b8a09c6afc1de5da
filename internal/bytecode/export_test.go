package bytecode

// VerifyStructural verifies branch targets, slot usage, and stack
// discipline only: Verify with the per-instruction §3.3 legality rules
// deferred, as VerifyClassStructural does for a whole class.
func VerifyStructural(m *Method) error { return verify(m, false) }
