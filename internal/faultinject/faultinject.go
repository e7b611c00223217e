// Package faultinject is the deterministic fault injector behind the
// resilience pipeline: it perturbs a profiling run with the failure modes
// the degradation machinery must survive — GPU faults at chosen PCs, hook
// errors, device-allocator failures, forced trace-buffer overflow, and
// worker panics — without breaking the byte-identical-output guarantee.
//
// Determinism is the whole design. Every injection decision is a pure
// function of (Config.Seed, cell name, per-cell event ordinal): a cell is
// selected by hashing its name with the seed, and within a selected cell
// the Nth hook call or Nth allocation fails, counted on that cell's own
// Injector. Nothing global, nothing time-based — so `cudaadvisor all
// -inject …` injures exactly the same cells with exactly the same errors
// at -j 1 and -j 8, which is what the determinism acceptance test pins.
//
// The injector composes with the existing plumbing instead of forking it:
// an Injector wraps the cell's rt.Listener (the profiler), intercepting
// KernelLaunch to wrap the returned gpu.Hooks — a hook error surfaces as
// a *gpu.Fault attributed to the hook's source location, i.e. a GPU fault
// at that PC — and implementing rt.AllocGate to veto device allocations.
// Forced overflow is exposed as a trace-buffer cap for the experiment
// layer to apply, and MaybePanic trips at cell start so the runner's
// panic isolation is exercised end to end.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"

	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/ir"
	"cudaadvisor/internal/rt"
)

// Injected-failure sentinels, for errors.Is in tests and triage. Note a
// hook error reaches the caller flattened inside a *gpu.Fault message, so
// only the allocator sentinel survives errors.Is end to end; the others
// are matched by their text ("injected …").
var (
	// ErrHook is the error an injected hook failure returns from OnHook.
	ErrHook = fmt.Errorf("injected hook error")
	// ErrFault is the error injected at a targeted source location.
	ErrFault = fmt.Errorf("injected gpu fault")
	// ErrAlloc is the error an injected allocator failure returns.
	ErrAlloc = fmt.Errorf("injected allocator failure")
)

// Config selects what to inject and where. The zero value injects
// nothing. Configs are immutable after Parse; per-cell state lives on the
// Injector.
type Config struct {
	// Seed perturbs cell selection: different seeds injure different
	// cells at different points, same seed reproduces a run exactly.
	Seed int64

	// CellRate selects 1-in-N cells for injection by seeded hash of the
	// cell name (0 and 1 both mean every cell).
	CellRate int

	// HookErrNth fails the Nth executed hook call in a selected cell
	// with ErrHook (0 = off). The executor converts it into a *gpu.Fault
	// at the hook's location.
	HookErrNth int64

	// FaultAtFile/FaultAtLine inject ErrFault at every hook whose source
	// location matches (file empty = off) — a GPU fault at a chosen PC.
	FaultAtFile string
	FaultAtLine int

	// AllocFailNth fails the Nth device allocation in a selected cell
	// with ErrAlloc (0 = off).
	AllocFailNth int64

	// OverflowCap, when > 0, is the trace-buffer capacity the experiment
	// layer should force on selected cells so the bounded-buffer
	// overflow path runs under real workloads.
	OverflowCap int

	// PanicCell panics at the start of every cell whose name contains
	// this substring (empty = off), exercising the runner's isolation.
	PanicCell string

	// KillCell hard-exits the whole process (exit code 3) at the start
	// of every cell whose name contains this substring (empty = off).
	// Unlike a panic, os.Exit skips deferred cleanup — this is the
	// simulated kill -9 behind the cache's dead-writer tests: the
	// victim leaves its cross-process claim file behind and the next
	// reader must take it over. Never enabled in the serve daemon.
	KillCell string
}

// Parse builds a Config from a comma-separated key=value spec, e.g.
//
//	seed=7,cells=3,hookerr=100,faultat=bfs.cu:12,allocfail=2,overflow=256,panic=fig5
//
// Unknown keys are errors so typos fail loudly rather than silently
// injecting nothing.
func Parse(spec string) (*Config, error) {
	cfg := &Config{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: field %q is not key=value", field)
		}
		num := func() (int64, error) {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("faultinject: %s=%q is not a non-negative integer", key, val)
			}
			return n, nil
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = num()
		case "cells":
			var n int64
			n, err = num()
			cfg.CellRate = int(n)
		case "hookerr":
			cfg.HookErrNth, err = num()
		case "faultat":
			file, line, ok := strings.Cut(val, ":")
			n, perr := strconv.Atoi(line)
			if !ok || file == "" || perr != nil || n <= 0 {
				return nil, fmt.Errorf("faultinject: faultat=%q is not file:line", val)
			}
			cfg.FaultAtFile, cfg.FaultAtLine = file, n
		case "allocfail":
			cfg.AllocFailNth, err = num()
		case "overflow":
			var n int64
			n, err = num()
			cfg.OverflowCap = int(n)
		case "panic":
			cfg.PanicCell = val
		case "kill":
			cfg.KillCell = val
		default:
			return nil, fmt.Errorf("faultinject: unknown key %q", key)
		}
		if err != nil {
			return nil, err
		}
	}
	return cfg, nil
}

// selected reports whether the seeded hash picks this cell.
func (c *Config) selected(cell string) bool {
	if c.CellRate <= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%s", c.Seed, cell)
	return h.Sum64()%uint64(c.CellRate) == 0
}

// Cell returns the injector for one evaluation cell. A nil Config (or a
// cell the seeded hash skips) yields a nil Injector, whose every method
// is an inert no-op — call sites never branch on "is injection on".
func (c *Config) Cell(name string) *Injector {
	if c == nil || !c.selected(name) {
		return nil
	}
	return &Injector{cfg: c, cell: name}
}

// Injector carries the per-cell injection state: the deterministic event
// counters that decide which hook call or allocation fails. One injector
// must not be shared between cells — the counters are the determinism.
type Injector struct {
	cfg    *Config
	cell   string
	hooks  int64
	allocs int64
}

// TraceCap returns the forced trace-buffer capacity for this cell, or
// fallback when overflow forcing is off.
func (in *Injector) TraceCap(fallback int) int {
	if in == nil || in.cfg.OverflowCap <= 0 {
		return fallback
	}
	return in.cfg.OverflowCap
}

// MaybePanic panics if this cell is a configured panic target. Call it at
// cell start, under the runner, whose protect() turns the panic into a
// *runner.PanicError instead of a process crash.
func (in *Injector) MaybePanic() {
	if in == nil || in.cfg.PanicCell == "" || !strings.Contains(in.cell, in.cfg.PanicCell) {
		return
	}
	panic(fmt.Sprintf("faultinject: injected panic in cell %s", in.cell))
}

// MaybeKill terminates the process with exit code 3 if this cell is a
// configured kill target. os.Exit runs no deferred functions, so
// whatever the caller holds — most importantly a cross-process cache
// claim mid-fill — is left behind exactly as a kill -9 would leave it.
func (in *Injector) MaybeKill() {
	if in == nil || in.cfg.KillCell == "" || !strings.Contains(in.cell, in.cfg.KillCell) {
		return
	}
	fmt.Fprintf(os.Stderr, "faultinject: injected kill in cell %s\n", in.cell)
	os.Exit(3)
}

// Listener wraps l so the cell's kernel hooks and device allocations pass
// through the injector. The wrapper forwards every event; l may be nil
// (native run), in which case only the injected failures are visible.
func (in *Injector) Listener(l rt.Listener) rt.Listener {
	if in == nil {
		return l
	}
	if l == nil {
		l = rt.NopListener{}
	}
	return &listener{Listener: l, in: in}
}

// listener is the rt.Listener wrapper: KernelLaunch chains the hook
// wrapper, AllocCheck implements rt.AllocGate.
type listener struct {
	rt.Listener
	in *Injector
}

func (l *listener) KernelLaunch(info *rt.LaunchInfo) (gpu.Hooks, error) {
	h, err := l.Listener.KernelLaunch(info)
	if err != nil {
		return nil, err
	}
	return l.in.Hooks(h), nil
}

// AllocCheck fails the cell's Nth device allocation.
func (l *listener) AllocCheck(bytes int64) error {
	l.in.allocs++
	if nth := l.in.cfg.AllocFailNth; nth > 0 && l.in.allocs == nth {
		return fmt.Errorf("%w (allocation %d in cell %s)", ErrAlloc, nth, l.in.cell)
	}
	// The inner listener keeps its own veto if it has one.
	if g, ok := l.Listener.(rt.AllocGate); ok {
		return g.AllocCheck(bytes)
	}
	return nil
}

// Hooks wraps h with the injector's hook-failure logic. h may be nil (an
// uninstrumented launch); hook instructions only exist in instrumented
// kernels, so a nil inner hook sink simply means no forwarding.
func (in *Injector) Hooks(h gpu.Hooks) gpu.Hooks {
	if in == nil {
		return h
	}
	return &hooks{inner: h, in: in}
}

type hooks struct {
	inner gpu.Hooks
	in    *Injector
}

func (h *hooks) OnHook(w *gpu.WarpView, call *ir.Instr, args []*gpu.LaneValues) error {
	h.in.hooks++
	if c := h.in.cfg; c.FaultAtFile != "" && call.Loc.File == c.FaultAtFile && call.Loc.Line == c.FaultAtLine {
		return fmt.Errorf("%w at %s:%d (cell %s)", ErrFault, c.FaultAtFile, c.FaultAtLine, h.in.cell)
	}
	if nth := h.in.cfg.HookErrNth; nth > 0 && h.in.hooks == nth {
		return fmt.Errorf("%w (hook call %d in cell %s)", ErrHook, nth, h.in.cell)
	}
	if h.inner == nil {
		return nil
	}
	return h.inner.OnHook(w, call, args)
}
