// Package findings is the unified optimization-report model that joins
// the two halves of the reproduction: the static advisor's predictions
// (divergent branches, access coalescing classes, barriers under
// divergent control) and the dynamic profiler's measurements (unique
// lines per warp, per-block divergence counts, per-site reuse). Each
// Finding is keyed by source location and carries the static claim, the
// dynamic evidence that corroborates or refutes it, and an estimated
// cycle benefit from fixing it; a Report ranks the findings app-wide.
//
// The JSON form of a Report is versioned (SchemaVersion) and canonical:
// encoding the same report always yields identical bytes, and
// Encode(Decode(b)) == b for any report this package produced — the
// properties downstream tool-calling consumers and the advise cache
// entry kind rely on.
package findings

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"cudaadvisor/internal/export"
	"cudaadvisor/internal/ir"
)

// SchemaVersion identifies the report schema. Any change to the JSON
// shape of Report or its fields must bump the version; Decode rejects
// every other version.
const SchemaVersion = "advisor-report/v3"

// Kind classifies a finding.
type Kind string

// The finding kinds, mirroring the static advisor's checkers.
const (
	KindBranch  Kind = "divergent-branch"
	KindAccess  Kind = "memory-access"
	KindBarrier Kind = "divergent-barrier"
	// KindBankConflict: a shared-memory access whose lane address pattern
	// hits one bank with multiple distinct words.
	KindBankConflict Kind = "bank-conflict"
	// KindSharedRace: a shared-memory read that can observe another
	// thread's write from the same barrier interval.
	KindSharedRace Kind = "shared-race"
)

// Verdict states how the dynamic evidence relates to the static claim.
type Verdict string

// Verdicts. The static analysis is one-sided (false positives allowed),
// so "refuted" means the predicted hazard never materialized on this
// input — a false positive, not an analysis bug.
const (
	// VerdictCorroborated: the profiler observed the predicted hazard.
	VerdictCorroborated Verdict = "corroborated"
	// VerdictRefuted: the site executed but the hazard never showed.
	VerdictRefuted Verdict = "refuted"
	// VerdictUnobserved: the site never executed on this input.
	VerdictUnobserved Verdict = "unobserved"
	// VerdictStaticOnly: no dynamic profile was taken (lint mode).
	VerdictStaticOnly Verdict = "static-only"
)

// Site is the source-location key of a finding.
type Site struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Func  string `json:"func"`
	Block string `json:"block"`
}

// Loc returns the site as an ir.Loc (the dynamic-side join key).
func (s Site) Loc() ir.Loc { return ir.Loc{File: s.File, Line: s.Line, Col: s.Col} }

func (s Site) String() string { return s.Loc().String() }

// RegionBlock is one basic block of a branch's influence region with
// its static instruction count — the cost basis the benefit estimator
// weighs the block's dynamic divergence by.
type RegionBlock struct {
	Name   string `json:"name"`
	Instrs int    `json:"instrs"`
}

// StaticEvidence carries the static advisor's claim.
type StaticEvidence struct {
	// Shape is the abstract value of the branch condition or the access
	// address (e.g. "varying", "affine(stride 4)").
	Shape string `json:"shape"`

	// Cond is the branch condition register (branch findings).
	Cond string `json:"cond,omitempty"`
	// Region is the branch's influence region (branch findings).
	Region []RegionBlock `json:"region,omitempty"`

	// Access findings: operation, width, coalescing class, byte stride
	// per lane, and the predicted unique lines per full warp at the
	// report's line size.
	AccessOp       string `json:"access_op,omitempty"`
	AccessBytes    int    `json:"access_bytes,omitempty"`
	Class          string `json:"class,omitempty"`
	StrideBytes    int64  `json:"stride_bytes,omitempty"`
	PredictedLines int    `json:"predicted_lines,omitempty"`

	// Shared-memory findings: the SharedDecl the address
	// resolves to ("" when unknown), the predicted conflict degree, and
	// whether the access is a warp broadcast.
	Decl      string `json:"decl,omitempty"`
	Degree    int    `json:"degree,omitempty"`
	Broadcast bool   `json:"broadcast,omitempty"`

	// Write is the conflicting write site of a shared-race finding (the
	// finding's own Site is the read).
	Write *Site `json:"write,omitempty"`
}

// DynamicEvidence carries the profiler's per-site measurements.
type DynamicEvidence struct {
	// Observed reports whether the site executed on the profiled input.
	Observed bool `json:"observed"`

	// WarpExecs counts warp-level executions: memory instructions at
	// the site (access findings), influence-region block entries
	// (branch findings), or barrier-block entries (barrier findings).
	WarpExecs int64 `json:"warp_execs,omitempty"`
	// DivergentExecs counts the hazardous subset: accesses touching
	// more than one line, or block entries with a partial warp.
	DivergentExecs int64 `json:"divergent_execs,omitempty"`

	// Access findings: measured average and maximum unique lines per
	// warp at the report's line size (the Figure 5 metric, per site).
	MeasuredLines float64 `json:"measured_lines,omitempty"`
	MaxLines      int     `json:"max_lines,omitempty"`

	// Access findings: forward-reuse statistics of the loaded data
	// (loads only; the vertical-bypass criterion).
	ReuseSamples int64 `json:"reuse_samples,omitempty"`
	ReuseReused  int64 `json:"reuse_reused,omitempty"`

	// Bank-conflict findings: measured average and maximum
	// conflict degree and the summed extra bank passes at this site.
	MeasuredDegree float64 `json:"measured_degree,omitempty"`
	MaxDegree      int     `json:"max_degree,omitempty"`
	BankReplays    int64   `json:"bank_replays,omitempty"`

	// Shared-race findings: lane reads that hit a word
	// another thread wrote in the same barrier interval.
	RaceReads int64 `json:"race_reads,omitempty"`
}

// Finding is one joined static/dynamic observation at one source site.
type Finding struct {
	Kind    Kind             `json:"kind"`
	Site    Site             `json:"site"`
	Static  StaticEvidence   `json:"static"`
	Dynamic *DynamicEvidence `json:"dynamic,omitempty"`
	Verdict Verdict          `json:"verdict"`

	// EstimatedCycles is the modeled cycle benefit of fixing the
	// finding (0 when nothing is to be gained or nothing was measured).
	EstimatedCycles int64 `json:"estimated_cycles"`

	Advice string `json:"advice"`

	// ExportFrame is the finding's leaf frame in `cudaadvisor export`
	// folded flamegraph output: grep the folded document for this escaped
	// frame name to see the finding's stacks and weights.
	ExportFrame string `json:"export_frame,omitempty"`
}

// Report is the ranked, versioned advisor report for one application on
// one architecture.
type Report struct {
	Schema   string    `json:"schema"`
	App      string    `json:"app"`
	Arch     string    `json:"arch"`
	LineSize int       `json:"line_size"`
	Scale    int       `json:"scale"`
	Findings []Finding `json:"findings"`
}

// NewReport assembles and ranks a report of the findings that advise
// (Advises), stamping every one with its flamegraph leaf frame so report
// consumers can cross-reference the exported folded stacks. It reuses
// fs's backing array.
func NewReport(app, arch string, lineSize, scale int, fs []Finding) *Report {
	fs = slices.DeleteFunc(fs, func(f Finding) bool { return !f.Advises() })
	Rank(fs)
	for i := range fs {
		fs[i].ExportFrame = export.SiteFrame(fs[i].Site.Loc())
	}
	return &Report{
		Schema:   SchemaVersion,
		App:      app,
		Arch:     arch,
		LineSize: lineSize,
		Scale:    scale,
		Findings: fs,
	}
}

// Encode renders the report as canonical JSON bytes: the same report
// always encodes identically, and decoding then re-encoding reproduces
// the bytes exactly.
func Encode(r *Report) ([]byte, error) {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// Decode parses and validates a report: the schema version must match
// SchemaVersion exactly, and no unknown fields may be present (schema
// stability is the contract tool-calling consumers depend on).
func Decode(data []byte) (*Report, error) {
	// Read the version first with a lenient pass, so a future schema is
	// reported as a version mismatch rather than a shape error.
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("advisor report: %w", err)
	}
	if head.Schema != SchemaVersion {
		return nil, fmt.Errorf("advisor report: schema %q, want %q", head.Schema, SchemaVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	r := &Report{}
	if err := dec.Decode(r); err != nil {
		return nil, fmt.Errorf("advisor report: %w", err)
	}
	return r, nil
}

// Summary tallies the report's verdicts.
func (r *Report) Summary() map[Verdict]int {
	out := make(map[Verdict]int)
	for i := range r.Findings {
		out[r.Findings[i].Verdict]++
	}
	return out
}
