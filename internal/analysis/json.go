package analysis

import (
	"encoding/json"
	"fmt"
	"sort"

	"cudaadvisor/internal/ir"
)

// The canonical JSON form of the two results that keep a per-site table
// in an unexported map. It is what a cache entry stores, so equal
// results encode to equal bytes: every exported field of the result
// (carried by embedding it, without its methods), then the table as a
// list in a total order — sites by full location, blocks by id.

type memDivFields MemDivResult

type memDivJSON struct {
	*memDivFields
	// Dist shadows the fixed-size array, whose decoding would pad or cut
	// a distribution of the wrong length instead of refusing it.
	Dist  []int64
	Sites []SiteDivergence
}

// MarshalJSON implements json.Marshaler.
func (r *MemDivResult) MarshalJSON() ([]byte, error) {
	sites := make([]SiteDivergence, 0, len(r.sites))
	for _, s := range r.sites {
		sites = append(sites, *s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].Loc.Less(sites[j].Loc) })
	return json.Marshal(memDivJSON{(*memDivFields)(r), r.Dist[:], sites})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *MemDivResult) UnmarshalJSON(b []byte) error {
	var f memDivFields
	p := memDivJSON{memDivFields: &f}
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	if len(p.Dist) != len(f.Dist) {
		return fmt.Errorf("memdiv distribution has %d bins, want %d", len(p.Dist), len(f.Dist))
	}
	copy(f.Dist[:], p.Dist)
	f.sites = make(map[ir.Loc]*SiteDivergence, len(p.Sites))
	for i := range p.Sites {
		f.sites[p.Sites[i].Loc] = &p.Sites[i]
	}
	*r = MemDivResult(f)
	return nil
}

type branchDivFields BranchDivResult

type branchDivJSON struct {
	*branchDivFields
	Blocks []BlockDivergence
}

// MarshalJSON implements json.Marshaler.
func (r *BranchDivResult) MarshalJSON() ([]byte, error) {
	blocks := make([]BlockDivergence, 0, len(r.blocks))
	for _, b := range r.blocks {
		blocks = append(blocks, *b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].ID < blocks[j].ID })
	return json.Marshal(branchDivJSON{(*branchDivFields)(r), blocks})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *BranchDivResult) UnmarshalJSON(b []byte) error {
	var f branchDivFields
	p := branchDivJSON{branchDivFields: &f}
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	f.blocks = make(map[int32]*BlockDivergence, len(p.Blocks))
	for i := range p.Blocks {
		f.blocks[p.Blocks[i].ID] = &p.Blocks[i]
	}
	*r = BranchDivResult(f)
	return nil
}
