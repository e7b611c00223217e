package profiler

// OnDerive has f called before each kernel instance a derivation folds
// in, until the returned function is called.
func OnDerive(f func()) (restore func()) {
	onDerive = f
	return func() { onDerive = nil }
}
