// On-disk store: one file per key under the cache directory, named by
// the key's content address. Each file is a one-line header (store
// name, payload checksum) followed by a JSON payload that embeds the
// canonical key string, so a load verifies — in order — the header
// format, the payload checksum, the JSON shape, and finally that the
// entry really belongs to the requested key (guarding against renamed
// or colliding files). Any failure at any step makes the entry a
// counted miss, never an error — and heals the store by removing the
// bad file, so the refill repairs it in place and later readers pay
// nothing. There is no stored format version: the binary's build
// version is folded into every key (buildid.go), so a rebuild
// addresses a fresh namespace and stale generations simply stop being
// referenced. Writes go through a temp file and an atomic rename so
// concurrent processes sharing a directory never observe half-written
// entries.
package profcache

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/instrument"
	"cudaadvisor/internal/ir"
)

// storeMagic heads every entry file: "<magic> <payload-sha256>\n".
// There is deliberately no version field here — versioning lives in the
// key (Key.Build), which the filename and the embedded canonical key
// both carry, so a semantic change to any producer re-addresses the
// store instead of requiring a hand-bumped constant.
const storeMagic = "cudaadvisor-profcache"

// entryPath returns the store file for a key.
func (c *Cache) entryPath(key Key) string {
	return filepath.Join(c.dir, key.ID()+".cell")
}

// badEntry counts a rejected on-disk entry and heals the store by
// removing it: the caller is about to refill, and until it does, every
// other reader would pay the same verification failure. Removal is
// best effort; only a successful heal is counted.
func (c *Cache) badEntry(key Key) {
	c.badEntries.Add(1)
	if err := os.Remove(c.entryPath(key)); err == nil {
		c.heals.Add(1)
	}
}

// profilePayload is the stable serialized form of a profile entry.
// Results are stored fully derived; slices replace the unexported maps of
// the analysis types, sorted canonically so identical results always
// encode to identical bytes.
type profilePayload struct {
	Key       string
	LineSize  int
	ReuseElem *analysis.ReuseResult
	ReuseLine *analysis.ReuseResult
	MemDiv    memDivPayload
	BranchDiv branchDivPayload
}

type memDivPayload struct {
	LineSize       int
	Dist           []int64
	Total          int64
	WeightedSum    int64
	EventsRecorded int64
	EventsSeen     int64
	Sites          []sitePayload
}

type sitePayload struct {
	File        string
	Line, Col   int
	Ctx         int32
	Count       int64
	WeightedSum int64
	MaxLines    int
	Diverged    int64
}

type branchDivPayload struct {
	Divergent      int64
	Total          int64
	EventsRecorded int64
	EventsSeen     int64
	Blocks         []blockPayload
}

type blockPayload struct {
	ID          int32
	Func        string
	Block       string
	BFile       string
	BLine, BCol int
	Execs       int64
	Divergent   int64
	Threads     int64
	Ctx         int32
	File        string
	Line, Col   int
}

// cyclesPayload is the stable serialized form of a cycles entry.
type cyclesPayload struct {
	Key     string
	Cycles  int64
	MaxCTAs int
}

// bytesPayload is the stable serialized form of a bytes-kind entry —
// an encoded advisor report or a rendered debug view (base64 under
// encoding/json) — so a warm load returns byte-identical output.
type bytesPayload struct {
	Key  string
	Data []byte
}

func encodeMemDiv(r *analysis.MemDivResult) memDivPayload {
	p := memDivPayload{
		LineSize:       r.LineSize,
		Dist:           append([]int64(nil), r.Dist[:]...),
		Total:          r.Total,
		WeightedSum:    r.WeightedSum,
		EventsRecorded: r.EventsRecorded,
		EventsSeen:     r.EventsSeen,
	}
	for _, s := range r.Sites() {
		p.Sites = append(p.Sites, sitePayload{
			File: s.Loc.File, Line: s.Loc.Line, Col: s.Loc.Col,
			Ctx: s.Ctx, Count: s.Count, WeightedSum: s.WeightedSum,
			MaxLines: s.MaxLines, Diverged: s.Diverged,
		})
	}
	// Sites() orders by divergence degree with a partial tiebreak; re-sort
	// on the full location so equal results always encode identically.
	sort.Slice(p.Sites, func(i, j int) bool {
		a, b := p.Sites[i], p.Sites[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return p
}

func decodeMemDiv(p memDivPayload) (*analysis.MemDivResult, error) {
	r := &analysis.MemDivResult{
		LineSize:       p.LineSize,
		Total:          p.Total,
		WeightedSum:    p.WeightedSum,
		EventsRecorded: p.EventsRecorded,
		EventsSeen:     p.EventsSeen,
	}
	if len(p.Dist) != len(r.Dist) {
		return nil, fmt.Errorf("memdiv distribution has %d bins, want %d", len(p.Dist), len(r.Dist))
	}
	copy(r.Dist[:], p.Dist)
	for _, s := range p.Sites {
		r.AddSite(analysis.SiteDivergence{
			Loc: ir.Loc{File: s.File, Line: s.Line, Col: s.Col},
			Ctx: s.Ctx, Count: s.Count, WeightedSum: s.WeightedSum,
			MaxLines: s.MaxLines, Diverged: s.Diverged,
		})
	}
	return r, nil
}

func encodeBranchDiv(r *analysis.BranchDivResult) branchDivPayload {
	p := branchDivPayload{
		Divergent:      r.Divergent,
		Total:          r.Total,
		EventsRecorded: r.EventsRecorded,
		EventsSeen:     r.EventsSeen,
	}
	for _, b := range r.Blocks() {
		p.Blocks = append(p.Blocks, blockPayload{
			ID: b.ID, Func: b.Block.Func, Block: b.Block.Block,
			BFile: b.Block.Loc.File, BLine: b.Block.Loc.Line, BCol: b.Block.Loc.Col,
			Execs: b.Execs, Divergent: b.Divergent, Threads: b.Threads,
			Ctx: b.Ctx, File: b.Loc.File, Line: b.Loc.Line, Col: b.Loc.Col,
		})
	}
	// Block ids are unique, so id order is a total, stable order.
	sort.Slice(p.Blocks, func(i, j int) bool { return p.Blocks[i].ID < p.Blocks[j].ID })
	return p
}

func decodeBranchDiv(p branchDivPayload) *analysis.BranchDivResult {
	r := &analysis.BranchDivResult{
		Divergent:      p.Divergent,
		Total:          p.Total,
		EventsRecorded: p.EventsRecorded,
		EventsSeen:     p.EventsSeen,
	}
	for _, b := range p.Blocks {
		r.AddBlock(analysis.BlockDivergence{
			Block: instrument.BlockInfo{
				Func: b.Func, Block: b.Block,
				Loc: ir.Loc{File: b.BFile, Line: b.BLine, Col: b.BCol},
			},
			ID: b.ID, Execs: b.Execs, Divergent: b.Divergent, Threads: b.Threads,
			Ctx: b.Ctx, Loc: ir.Loc{File: b.File, Line: b.Line, Col: b.Col},
		})
	}
	return r
}

// loadProfile reads and verifies the disk entry for key. ok is false on
// any miss — absent, unreadable, or failing verification (the latter
// also counts a bad entry).
func (c *Cache) loadProfile(key Key) (*Results, bool) {
	raw, ok := c.loadPayload(key)
	if !ok {
		return nil, false
	}
	var p profilePayload
	if err := json.Unmarshal(raw, &p); err != nil || p.Key != key.Canonical() ||
		p.ReuseElem == nil || p.ReuseLine == nil {
		c.badEntry(key)
		return nil, false
	}
	md, err := decodeMemDiv(p.MemDiv)
	if err != nil {
		c.badEntry(key)
		return nil, false
	}
	return &Results{
		lineSize:  p.LineSize,
		reuseElem: p.ReuseElem,
		reuseLine: p.ReuseLine,
		memDiv:    md,
		branchDiv: decodeBranchDiv(p.BranchDiv),
	}, true
}

// loadCycles reads and verifies the disk entry for a cycles key.
func (c *Cache) loadCycles(key Key) (CycleStats, bool) {
	raw, ok := c.loadPayload(key)
	if !ok {
		return CycleStats{}, false
	}
	var p cyclesPayload
	if err := json.Unmarshal(raw, &p); err != nil || p.Key != key.Canonical() {
		c.badEntry(key)
		return CycleStats{}, false
	}
	return CycleStats{Cycles: p.Cycles, MaxCTAs: p.MaxCTAs}, true
}

// loadBytes reads and verifies the disk entry for a bytes-kind key
// (advise reports, rendered views). An empty payload is a valid entry:
// some views render to nothing (a folded export whose weight is zero
// everywhere), and the checksum and key already vouch for the file.
func (c *Cache) loadBytes(key Key) ([]byte, bool) {
	raw, ok := c.loadPayload(key)
	if !ok {
		return nil, false
	}
	var p bytesPayload
	if err := json.Unmarshal(raw, &p); err != nil || p.Key != key.Canonical() {
		c.badEntry(key)
		return nil, false
	}
	return p.Data, true
}

// loadPayload reads an entry file and returns its checksum-verified
// payload bytes. A missing file is a silent miss; anything else wrong
// with the file is a counted bad entry (and still a miss).
func (c *Cache) loadPayload(key Key) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	f, err := os.Open(c.entryPath(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.badEntry(key)
		}
		return nil, false
	}
	defer f.Close()
	r := bufio.NewReader(f)
	header, err := r.ReadString('\n')
	if err != nil {
		c.badEntry(key)
		return nil, false
	}
	fields := strings.Fields(header)
	if len(fields) != 2 || fields[0] != storeMagic {
		c.badEntry(key)
		return nil, false
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		c.badEntry(key)
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[1] {
		c.badEntry(key)
		return nil, false
	}
	return payload, true
}

// storeProfile serializes a resolved Results bundle to disk. Store
// failures are counted, never surfaced: the run already has its result.
func (c *Cache) storeProfile(key Key, res *Results) {
	if c.dir == "" {
		return
	}
	p := profilePayload{
		Key:       key.Canonical(),
		LineSize:  res.lineSize,
		ReuseElem: res.ReuseElem(),
		ReuseLine: res.ReuseLine(),
		MemDiv:    encodeMemDiv(res.MemDiv()),
		BranchDiv: encodeBranchDiv(res.BranchDiv()),
	}
	c.storePayload(key, p)
}

// storeCycles serializes a cycles entry to disk.
func (c *Cache) storeCycles(key Key, cyc CycleStats) {
	if c.dir == "" {
		return
	}
	c.storePayload(key, cyclesPayload{Key: key.Canonical(), Cycles: cyc.Cycles, MaxCTAs: cyc.MaxCTAs})
}

// storeBytes serializes a bytes-kind entry to disk.
func (c *Cache) storeBytes(key Key, data []byte) {
	if c.dir == "" {
		return
	}
	c.storePayload(key, bytesPayload{Key: key.Canonical(), Data: data})
}

// storePayload writes "<header>\n<json>" atomically (temp + rename).
func (c *Cache) storePayload(key Key, payload any) {
	raw, err := json.Marshal(payload)
	if err != nil {
		c.storeErrors.Add(1)
		return
	}
	sum := sha256.Sum256(raw)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %s\n", storeMagic, hex.EncodeToString(sum[:]))
	buf.Write(raw)
	if err := os.MkdirAll(c.dir, 0o777); err != nil {
		c.storeErrors.Add(1)
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		c.storeErrors.Add(1)
		return
	}
	_, werr := tmp.Write(buf.Bytes())
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		c.storeErrors.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), c.entryPath(key)); err != nil {
		os.Remove(tmp.Name())
		c.storeErrors.Add(1)
		return
	}
	c.stores.Add(1)
}
