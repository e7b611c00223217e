package main

import (
	"encoding/json"
	"sort"
	"time"
)

// span is one timed interval of the traced pass: a call into one
// layer's public function, or a whole cell (Parent < 0).
type span struct {
	Name   string
	Cell   string // the cell the span belongs to; spans of one cell share it
	Start  time.Duration
	End    time.Duration
	Parent int // index of the span that caused this one, -1 for a cell
}

// tracer keeps spans in memory until the pass ends. It serves one
// goroutine. A nil tracer records nothing, which is how the same cell
// code runs with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name, cell string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Cell: cell, Start: time.Since(t.t0), Parent: parent})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}
}

// family indexes the spans by parent: each span's direct children, and
// the spans that have no parent, both in recording order.
func family(spans []span) (children [][]int, roots []int) {
	children = make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	return children, roots
}

// selfTimes gives each span its duration minus the part of that interval
// its direct children cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	children, _ := family(spans)
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// chromeEvent is the subset of the Trace Event Format that `cudaadvisor
// checkexport` accepts: balanced B/E pairs with string args.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace renders the spans as one track of nested duration events.
func chromeTrace(spans []span) ([]byte, error) {
	children, roots := family(spans)
	events := []chromeEvent{{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]string{"name": "bench traced pass"}}}
	var emit func(i int)
	emit = func(i int) {
		s := spans[i]
		events = append(events, chromeEvent{Name: s.Name, Ph: "B", Ts: s.Start.Microseconds(), Pid: 1, Tid: 1, Args: map[string]string{"cell": s.Cell}})
		for _, k := range children[i] { // recorded in start order
			emit(k)
		}
		events = append(events, chromeEvent{Name: s.Name, Ph: "E", Ts: s.End.Microseconds(), Pid: 1, Tid: 1})
	}
	for _, i := range roots {
		emit(i)
	}
	return json.Marshal(events)
}
