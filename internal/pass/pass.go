// Package pass provides the transformation-pass framework over the
// miniature IR, the analog of LLVM's pass manager through which the
// paper's instrumentation engine is invoked (it is "implemented as an
// LLVM pass" run by opt).
//
// A Pass transforms or checks a module. The Manager runs passes in
// order, re-finalizing the module after each transforming pass so that
// register/block/callee resolution stays consistent, and verifying the
// result when configured to.
package pass

import (
	"fmt"

	"cudaadvisor/internal/ir"
)

// Pass is a module transformation or analysis.
type Pass interface {
	// Name identifies the pass in diagnostics.
	Name() string
	// Run applies the pass. Transforming passes mutate m in place and
	// report whether they changed anything.
	Run(m *ir.Module) (changed bool, err error)
}

// Manager runs a pipeline of passes, running the IR verifier once before
// it and after every pass that reports a change.
type Manager struct {
	passes []Pass
}

// NewManager returns a Manager for passes.
func NewManager(passes ...Pass) *Manager {
	return &Manager{passes: passes}
}

// Add appends passes to the pipeline.
func (pm *Manager) Add(passes ...Pass) { pm.passes = append(pm.passes, passes...) }

// Run executes the pipeline on m.
func (pm *Manager) Run(m *ir.Module) error {
	if err := m.Finalize(); err != nil {
		return fmt.Errorf("pass manager: finalize: %w", err)
	}
	if err := ir.Verify(m); err != nil {
		return fmt.Errorf("pass manager: input module invalid: %w", err)
	}
	for _, p := range pm.passes {
		changed, err := p.Run(m)
		if err != nil {
			return fmt.Errorf("pass %s: %w", p.Name(), err)
		}
		if changed {
			if err := m.Finalize(); err != nil {
				return fmt.Errorf("pass %s left module unfinalizable: %w", p.Name(), err)
			}
			if err := ir.Verify(m); err != nil {
				return fmt.Errorf("pass %s left module invalid: %w", p.Name(), err)
			}
		}
	}
	return nil
}

// funcPass lifts a per-function transformation into a Pass.
type funcPass struct {
	name string
	run  func(f *ir.Function) (bool, error)
}

func (p *funcPass) Name() string { return p.name }

func (p *funcPass) Run(m *ir.Module) (bool, error) {
	changed := false
	for _, f := range m.Funcs {
		c, err := p.run(f)
		if err != nil {
			return changed, fmt.Errorf("func @%s: %w", f.Name, err)
		}
		changed = changed || c
	}
	return changed, nil
}

// ForEachFunc builds a module pass from a per-function transformation.
func ForEachFunc(name string, run func(f *ir.Function) (bool, error)) Pass {
	return &funcPass{name: name, run: run}
}

// VerifyPass re-checks module validity as an explicit pipeline step.
type VerifyPass struct{}

// Name implements Pass.
func (VerifyPass) Name() string { return "verify" }

// Run implements Pass.
func (VerifyPass) Run(m *ir.Module) (bool, error) { return false, ir.Verify(m) }
