package analysis

// OnWalk has f told of every reuse traversal until the returned function
// is called.
func OnWalk(f func(ReuseOptions)) (restore func()) {
	onWalk = f
	return func() { onWalk = nil }
}
