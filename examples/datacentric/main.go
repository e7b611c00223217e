// Datacentric: the code- and data-centric debugging views of Section
// 4.2-E on the bfs benchmark — which source lines suffer memory
// divergence, through which host→device call paths they are reached
// (Figure 8), and which host/device data objects are behind them
// (Figure 9).
//
// Run with: go run ./examples/datacentric
package main

import (
	"log"
	"os"

	"cudaadvisor/internal/experiments"
)

func main() {
	if err := experiments.WriteCodeDataCentric(os.Stdout, experiments.Env{Scale: 1}); err != nil {
		log.Fatal(err)
	}
}
