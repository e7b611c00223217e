package ir

import "testing"

// diamond builds: entry -> {then, else} -> join -> exit(ret)
func diamond(t *testing.T) *Function {
	t.Helper()
	b := NewKernel("d", P("n", I32))
	b.Blk("entry").
		ICmp("c", PredLT, I32, R("n"), I32Op(10)).
		CBr(R("c"), "then", "else")
	b.Blk("then").Mov("x", I32, I32Op(1)).Br("join")
	b.Blk("else").Mov("x", I32, I32Op(2)).Br("join")
	b.Blk("join").Add("y", R("x"), I32Op(1)).Br("exit")
	b.Blk("exit").Ret()
	m, err := BuildModule("t", b.Done())
	if err != nil {
		t.Fatalf("BuildModule: %v", err)
	}
	return m.Func("d")
}

func TestReversePostorder(t *testing.T) {
	f := diamond(t)
	rpo := ReversePostorder(f)
	if len(rpo) != 5 {
		t.Fatalf("rpo has %d blocks, want 5", len(rpo))
	}
	if rpo[0].Name != "entry" {
		t.Errorf("rpo[0] = %s, want entry", rpo[0].Name)
	}
	pos := map[string]int{}
	for i, b := range rpo {
		pos[b.Name] = i
	}
	// Every edge u->v with v not an ancestor (no back edges here) must have
	// pos[u] < pos[v].
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if pos[b.Name] >= pos[s.Name] {
				t.Errorf("rpo violates edge %s -> %s", b.Name, s.Name)
			}
		}
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f := diamond(t)
	idom := Dominators(f)
	idx := func(name string) int { return blockNamed(f, name).Index }
	want := map[string]string{
		"entry": "entry",
		"then":  "entry",
		"else":  "entry",
		"join":  "entry",
		"exit":  "join",
	}
	for blk, dom := range want {
		if idom[idx(blk)] != idx(dom) {
			t.Errorf("idom(%s) = %d, want %s(%d)", blk, idom[idx(blk)], dom, idx(dom))
		}
	}
}

func TestPostDominatorsDiamond(t *testing.T) {
	f := diamond(t)
	ipdom := PostDominators(f)
	idx := func(name string) int { return blockNamed(f, name).Index }
	// join post-dominates the branch: reconvergence point for entry's cbr.
	if ipdom[idx("entry")] != idx("then") && ipdom[idx("entry")] != idx("join") {
		// entry's ipdom must be join (then/else don't postdominate entry).
	}
	if got := ipdom[idx("entry")]; got != idx("join") {
		t.Errorf("ipdom(entry) = %d, want join(%d)", got, idx("join"))
	}
	if got := ipdom[idx("then")]; got != idx("join") {
		t.Errorf("ipdom(then) = %d, want join(%d)", got, idx("join"))
	}
	if got := ipdom[idx("join")]; got != idx("exit") {
		t.Errorf("ipdom(join) = %d, want exit(%d)", got, idx("exit"))
	}
	if got := ipdom[idx("exit")]; got != VirtualExit {
		t.Errorf("ipdom(exit) = %d, want VirtualExit", got)
	}
}

// loop builds: entry -> head; head -> {body, exit}; body -> head.
func loopFunc(t *testing.T) *Function {
	t.Helper()
	b := NewKernel("l", P("n", I32))
	b.Blk("entry").
		Mov("i", I32, I32Op(0)).
		Br("head")
	b.Blk("head").
		ICmp("c", PredLT, I32, R("i"), R("n")).
		CBr(R("c"), "body", "exit")
	b.Blk("body").
		Add("i", R("i"), I32Op(1)).
		Br("head")
	b.Blk("exit").Ret()
	m, err := BuildModule("t", b.Done())
	if err != nil {
		t.Fatalf("BuildModule: %v", err)
	}
	return m.Func("l")
}

func TestDominatorsLoop(t *testing.T) {
	f := loopFunc(t)
	idom := Dominators(f)
	idx := func(name string) int { return blockNamed(f, name).Index }
	if idom[idx("body")] != idx("head") {
		t.Errorf("idom(body) = %d, want head", idom[idx("body")])
	}
	if idom[idx("exit")] != idx("head") {
		t.Errorf("idom(exit) = %d, want head", idom[idx("exit")])
	}
	if !Dominates(idom, idx("entry"), idx("body")) {
		t.Error("entry should dominate body")
	}
	if Dominates(idom, idx("body"), idx("exit")) {
		t.Error("body should not dominate exit")
	}
}

func TestPostDominatorsLoop(t *testing.T) {
	f := loopFunc(t)
	ipdom := PostDominators(f)
	idx := func(name string) int { return blockNamed(f, name).Index }
	// The loop head's branch reconverges at exit.
	if got := ipdom[idx("head")]; got != idx("exit") {
		t.Errorf("ipdom(head) = %d, want exit(%d)", got, idx("exit"))
	}
	if got := ipdom[idx("body")]; got != idx("head") {
		t.Errorf("ipdom(body) = %d, want head(%d)", got, idx("head"))
	}
}

func TestPostDominatorsBothArmsReturn(t *testing.T) {
	b := NewKernel("r", P("n", I32))
	b.Blk("entry").
		ICmp("c", PredLT, I32, R("n"), I32Op(0)).
		CBr(R("c"), "a", "z")
	b.Blk("a").Ret()
	b.Blk("z").Ret()
	m, err := BuildModule("t", b.Done())
	if err != nil {
		t.Fatalf("BuildModule: %v", err)
	}
	f := m.Func("r")
	ipdom := PostDominators(f)
	if got := ipdom[blockNamed(f, "entry").Index]; got != VirtualExit {
		t.Errorf("ipdom(entry) = %d, want VirtualExit", got)
	}
}

func TestPostDominatorsUnreachableAndInfinite(t *testing.T) {
	// head -> head (infinite loop): no block reaches an exit.
	f := &Function{Name: "inf", IsKernel: true}
	f.Blocks = []*Block{
		{Name: "entry", Instrs: []*Instr{{Op: OpBr, Then: "entry"}}},
	}
	m := NewModule("t")
	m.AddFunc(f)
	if err := m.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	ipdom := PostDominators(f)
	if ipdom[0] != -1 {
		t.Errorf("ipdom(infinite loop block) = %d, want -1", ipdom[0])
	}
}

// ReversePostorder returns the blocks of f in reverse postorder of the
// CFG rooted at the entry block. Unreachable blocks are omitted.
func ReversePostorder(f *Function) []*Block {
	n := len(f.Blocks)
	seen := make([]bool, n)
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if n > 0 {
		dfs(f.Blocks[0])
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominators computes the immediate dominator of every reachable block.
// The result is indexed by Block.Index; idom[entry] = entry, and -1 marks
// unreachable blocks.
func Dominators(f *Function) []int {
	rpo := ReversePostorder(f)
	preds := predecessors(f)
	return chk(len(f.Blocks), rpo,
		func(b *Block) []*Block { return preds[b.Index] })
}

// predecessors derives each block's predecessors, by Block.Index, from
// the Succs edges Finalize computes.
func predecessors(f *Function) [][]*Block {
	preds := make([][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b)
		}
	}
	return preds
}

// chk runs Cooper-Harvey-Kennedy over blocks; preds supplies the relevant
// predecessor relation. rpo[0] must be the root.
func chk(n int, rpo []*Block, preds func(*Block) []*Block) []int {
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	if len(rpo) == 0 {
		return idom
	}
	order := make([]int, n) // rpo number per block index
	for i := range order {
		order[i] = -1
	}
	for i, b := range rpo {
		order[b.Index] = i
	}
	root := rpo[0].Index
	idom[root] = root

	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			newIdom := -1
			for _, p := range preds(b) {
				if idom[p.Index] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p.Index
				} else {
					newIdom = intersect(newIdom, p.Index)
				}
			}
			if newIdom != -1 && idom[b.Index] != newIdom {
				idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b given an idom array
// from Dominators.
func Dominates(idom []int, a, b int) bool {
	for {
		if b == a {
			return true
		}
		next := idom[b]
		if next == -1 || next == b {
			return b == a
		}
		b = next
	}
}
