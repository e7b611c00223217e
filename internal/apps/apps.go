// Package apps re-implements the ten Table-2 benchmark applications from
// Rodinia and Polybench as miniature-IR kernels plus Go host drivers, at
// simulator-scale inputs. Each driver runs the full host workflow
// (allocation, transfer, launches, readback) through the host runtime and
// validates the device results against a pure-Go reference
// implementation, so the SIMT simulator is checked end-to-end by every
// application.
//
// The kernels preserve the structural properties the paper's analyses key
// on — access strides and broadcasts (memory divergence, Figure 5), guard
// and wavefront branching (branch divergence, Table 3), and data-reuse
// patterns (reuse distance, Figure 4).
package apps

import (
	"fmt"

	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/irtext"
	"cudaadvisor/internal/rt"
)

// App is one benchmark application.
type App struct {
	Name        string
	Description string
	Suite       string // "rodinia" or "polybench"
	WarpsPerCTA int    // Table 2

	// BlockDims is the CTA block dimension every kernel launch of this
	// application uses (the launch-layout hint the static advisor
	// resolves tid.y/tid.z strides against). The zero value means no
	// hint; an application whose kernels launch with differing block
	// shapes must leave it zero.
	BlockDims [3]int

	// SourceFile and Source hold the device code in textual IR.
	SourceFile string
	Source     string

	// Run executes the host driver: allocations, copies, kernel launches
	// and validation against the Go reference. scale >= 1 grows the input
	// (1 is the default evaluation size).
	Run func(ctx *rt.Context, prog *instrument.Program, scale int) error

	// BypassFavorable marks the applications evaluated in the cache
	// bypassing study (Figures 6 and 7).
	BypassFavorable bool
}

// Module parses a fresh copy of the app's device code. Each caller gets
// its own module so native and instrumented builds can coexist.
func (a *App) Module() (*ir.Module, error) {
	return irtext.Parse(a.SourceFile, a.Source)
}

// Native returns an uninstrumented program.
func (a *App) Native() (*instrument.Program, error) {
	m, err := a.Module()
	if err != nil {
		return nil, err
	}
	return instrument.NativeProgram(m), nil
}

// Instrumented returns a freshly instrumented program.
func (a *App) Instrumented(opts instrument.Options) (*instrument.Program, error) {
	m, err := a.Module()
	if err != nil {
		return nil, err
	}
	return instrument.Instrument(m, opts)
}

var registry = map[string]*App{}

func register(a *App) *App {
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("apps: duplicate app %q", a.Name))
	}
	registry[a.Name] = a
	return a
}

// ByName returns the named application, or nil.
func ByName(name string) *App { return registry[name] }

// TableOrder lists the applications in the paper's Table 2 order.
var TableOrder = []string{
	"backprop", "bfs", "hotspot", "lavaMD", "nn", "nw", "srad_v2",
	"bicg", "syrk", "syr2k",
}

// InTableOrder returns the applications in Table 2 order.
func InTableOrder() []*App {
	var out []*App
	for _, n := range TableOrder {
		if a := registry[n]; a != nil {
			out = append(out, a)
		}
	}
	return out
}
