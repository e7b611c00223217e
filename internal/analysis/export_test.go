package analysis

// OnWalk has f told of every reuse traversal until the returned function
// is called.
func OnWalk(f func(ReuseOptions)) (restore func()) {
	onWalk = f
	return func() { onWalk = nil }
}

// SplitAt sets the fewest records a share of the reuse walk and of the
// record loops holds until the returned function is called.
func SplitAt(walk, records int) (restore func()) {
	w, r := walkRangeMin, recordRangeMin
	walkRangeMin, recordRangeMin = walk, records
	return func() { walkRangeMin, recordRangeMin = w, r }
}
