package rt

import (
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/ir"
)

// NopListener is a Listener that ignores every event. Embed it to build
// listeners that care about a subset of events (e.g. cycle accounting for
// the bypassing study).
type NopListener struct{}

var _ Listener = NopListener{}

// HostEnter implements Listener.
func (NopListener) HostEnter(string, ir.Loc) {}

// HostLeave implements Listener.
func (NopListener) HostLeave() {}

// HostAlloc implements Listener.
func (NopListener) HostAlloc(*HostBuf, ir.Loc) {}

// DeviceAlloc implements Listener.
func (NopListener) DeviceAlloc(uint64, int64, ir.Loc) {}

// Memcpy implements Listener.
func (NopListener) Memcpy(CopyKind, uint64, uint64, int64, ir.Loc) {}

// KernelLaunch implements Listener.
func (NopListener) KernelLaunch(*LaunchInfo) (gpu.Hooks, error) { return nil, nil }

// KernelEnd implements Listener.
func (NopListener) KernelEnd(*LaunchInfo, *gpu.LaunchResult) {}

// CycleCounter accumulates modeled kernel cycles across every launch in a
// run: the measurement behind the bypassing comparisons (Figures 6/7) and
// the overhead study (Figure 10). An instrumented launch runs its hooks
// into a sink that records nothing, so the model charges each hook call
// its ArchConfig.HookCost as a profiled run does.
type CycleCounter struct {
	NopListener
	Cycles int64
	// MaxCTAs is the largest grid (in CTAs) launched in this run — the
	// measured #CTAs input of the bypass capacity model, taken from the
	// actual launch rather than extrapolated from a smaller one.
	MaxCTAs int
}

// NewCycleCounter returns an empty counter.
func NewCycleCounter() *CycleCounter {
	return &CycleCounter{}
}

// KernelLaunch implements Listener.
func (c *CycleCounter) KernelLaunch(info *LaunchInfo) (gpu.Hooks, error) {
	if info.Tables == nil {
		return nil, nil
	}
	return nopHooks{}, nil
}

// KernelEnd implements Listener.
func (c *CycleCounter) KernelEnd(info *LaunchInfo, res *gpu.LaunchResult) {
	c.Cycles += res.Cycles
	if res.CTAs > c.MaxCTAs {
		c.MaxCTAs = res.CTAs
	}
}

// nopHooks ignores every hook call. It records per SM (gpu.SMHooks), so a
// hooked launch fans its SMs out on a pool as a native one does.
type nopHooks struct{}

func (nopHooks) OnHook(*gpu.WarpView, *ir.Instr, []*gpu.LaneValues) error { return nil }
func (nopHooks) ForSM(int) gpu.SMSink                                     { return nopHooks{} }
func (nopHooks) SMDone(error)                                             {}
