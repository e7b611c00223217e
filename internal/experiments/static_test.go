package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"cudaadvisor/internal/apps"
)

// TestAppAnalysisOnce: K rounds of `lint` of one app in every format and
// architecture, asked for at once beside an `advise` fill of the same
// app, run the static advisor over the app once, and every round's lint
// bytes equal the first round's.
func TestAppAnalysisOnce(t *testing.T) {
	var mu sync.Mutex
	analysed := map[string]int{}
	defer OnAnalyze(func(a *apps.App) {
		mu.Lock()
		analysed[a.Name]++
		mu.Unlock()
	})()

	const rounds = 4
	lints := []map[string]string{
		{"format": "text"},
		{"format": "json"},
		{"format": "json", "arch": "pascal"},
	}
	var reqs []*Request
	for i := 0; i < rounds; i++ {
		for _, q := range lints {
			r, err := NewRequest("lint", func(name string) string {
				if name == "app" {
					return "bfs"
				}
				return q[name]
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, r)
		}
	}
	advise, err := NewRequest("advise", func(name string) string {
		return map[string]string{"app": "bfs", "format": "json"}[name]
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bodies := writeAll(t, Env{}, append(reqs, advise))

	if want := map[string]int{"bfs": 1}; !reflect.DeepEqual(analysed, want) {
		t.Errorf("static analyses = %v, want %v", analysed, want)
	}
	for i := len(lints); i < len(reqs); i++ {
		if !bytes.Equal(bodies[i], bodies[i%len(lints)]) {
			t.Errorf("lint %v, round %d: bytes differ from round 0", lints[i%len(lints)], i/len(lints))
		}
	}
}
