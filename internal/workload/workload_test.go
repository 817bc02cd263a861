package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/blockdev"
)

func TestCharismaGeneratesValidTrace(t *testing.T) {
	p := DefaultCharismaParams()
	tr, err := GenerateCharisma(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(p.Nodes, p.BlockSize); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Procs); got != p.Apps*p.ProcsPerApp {
		t.Errorf("procs = %d, want %d", got, p.Apps*p.ProcsPerApp)
	}
	// Data files plus one scratch file per application.
	if len(tr.FileBlocks) != p.Apps*(p.FilesPerApp+1) {
		t.Errorf("files = %d, want %d", len(tr.FileBlocks), p.Apps*(p.FilesPerApp+1))
	}
	if tr.TotalSteps() == 0 || Analyze(tr, p.BlockSize).Reads == 0 {
		t.Error("empty trace")
	}
}

func TestCharismaDeterministic(t *testing.T) {
	p := DefaultCharismaParams()
	a, _ := GenerateCharisma(p)
	b, _ := GenerateCharisma(p)
	if a.TotalSteps() != b.TotalSteps() {
		t.Fatalf("step counts differ: %d vs %d", a.TotalSteps(), b.TotalSteps())
	}
	for i := range a.Procs {
		for j := range a.Procs[i].Steps {
			if a.Procs[i].Steps[j] != b.Procs[i].Steps[j] {
				t.Fatalf("step %d/%d differs across runs", i, j)
			}
		}
	}
	p2 := p
	p2.Seed = 2
	c, _ := GenerateCharisma(p2)
	if c.TotalSteps() == a.TotalSteps() {
		// Same step count is possible but full equality is not.
		same := true
	outer:
		for i := range a.Procs {
			for j := range a.Procs[i].Steps {
				if a.Procs[i].Steps[j] != c.Procs[i].Steps[j] {
					same = false
					break outer
				}
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestCharismaFilesAreLargeAndHeadsPartial(t *testing.T) {
	p := DefaultCharismaParams()
	tr, _ := GenerateCharisma(p)
	// Mean data-file size should be in the vicinity of MeanFileBlocks
	// (scratch files are fixed-size and excluded).
	var total int64
	var n int
	for _, b := range tr.FileBlocks {
		if int(b) == p.ScratchBlocks {
			continue
		}
		total += int64(b)
		n++
	}
	mean := float64(total) / float64(n)
	if mean < float64(p.MeanFileBlocks)/3 || mean > float64(p.MeanFileBlocks)*3 {
		t.Errorf("mean file blocks %.0f, configured %d", mean, p.MeanFileBlocks)
	}
	// No read step may touch the cold tail beyond the accessed
	// fraction (writes include the whole-scratch hot updates).
	for _, proc := range tr.Procs {
		for _, s := range proc.Steps {
			if s.Kind != OpRead {
				continue
			}
			endBlock := (s.Offset + s.Size - 1) / p.BlockSize
			fb := int64(tr.FileBlocks[s.File])
			head := int64(float64(fb) * p.AccessedFraction)
			if head < 4 {
				head = 4
			}
			if endBlock >= head {
				t.Fatalf("read touches tail: block %d of head %d (file %d, %d blocks)",
					endBlock, head, s.File, fb)
			}
		}
	}
}

func TestCharismaHasWritesAndLargeRequests(t *testing.T) {
	tr, _ := GenerateCharisma(DefaultCharismaParams())
	writes, large := 0, 0
	for _, proc := range tr.Procs {
		for _, s := range proc.Steps {
			if s.Kind == OpWrite {
				writes++
			}
			if s.Size >= 8*8192 {
				large++
			}
		}
	}
	if writes == 0 {
		t.Error("no write steps")
	}
	if large == 0 {
		t.Error("no large requests (CHARISMA byte mix needs them)")
	}
}

func TestCharismaSharing(t *testing.T) {
	// Processes of one app must share files: some file must be read
	// by more than one process.
	tr, _ := GenerateCharisma(DefaultCharismaParams())
	users := make(map[blockdev.FileID]map[blockdev.NodeID]bool)
	for _, proc := range tr.Procs {
		for _, s := range proc.Steps {
			if users[s.File] == nil {
				users[s.File] = make(map[blockdev.NodeID]bool)
			}
			users[s.File][proc.Node] = true
		}
	}
	shared := 0
	for _, u := range users {
		if len(u) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no file is shared across nodes")
	}
}

func TestCharismaValidation(t *testing.T) {
	bad := []func(*CharismaParams){
		func(p *CharismaParams) { p.Nodes = 0 },
		func(p *CharismaParams) { p.Apps = 0 },
		func(p *CharismaParams) { p.ProcsPerApp = 0 },
		func(p *CharismaParams) { p.BurstLen = 0 },
		func(p *CharismaParams) { p.ScratchBlocks = 0 }, // hot writes still on
		func(p *CharismaParams) { p.FilesPerApp = 0 },
		func(p *CharismaParams) { p.MeanFileBlocks = 1 },
		func(p *CharismaParams) { p.AccessedFraction = 0 },
		func(p *CharismaParams) { p.AccessedFraction = 1.5 },
		func(p *CharismaParams) { p.Phases = 0 },
		func(p *CharismaParams) { p.MeanThink = -1 },
		func(p *CharismaParams) { p.BlockSize = 0 },
	}
	for i, mut := range bad {
		p := DefaultCharismaParams()
		mut(&p)
		if _, err := GenerateCharisma(p); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSpriteGeneratesValidTrace(t *testing.T) {
	p := DefaultSpriteParams()
	tr, err := GenerateSprite(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(p.Nodes, p.BlockSize); err != nil {
		t.Fatal(err)
	}
	if len(tr.Procs) != p.Nodes {
		t.Errorf("procs = %d, want one per node (%d)", len(tr.Procs), p.Nodes)
	}
}

func TestSpriteFilesAreSmall(t *testing.T) {
	p := DefaultSpriteParams()
	tr, _ := GenerateSprite(p)
	var total int64
	small := 0
	for _, b := range tr.FileBlocks {
		total += int64(b)
		if b <= 8 {
			small++
		}
	}
	mean := float64(total) / float64(len(tr.FileBlocks))
	if mean > 20 {
		t.Errorf("mean Sprite file = %.1f blocks; should be small", mean)
	}
	if float64(small)/float64(len(tr.FileBlocks)) < 0.5 {
		t.Error("fewer than half the files are small")
	}
}

func TestSpriteSequentialSessions(t *testing.T) {
	p := DefaultSpriteParams()
	p.SessionsPerClient = 20
	p.Nodes = 4
	p.DBProb = 0 // db sessions are strided by design; tested separately
	tr, _ := GenerateSprite(p)
	// Within one process, runs of steps on the same file must be
	// sequential passes starting at offset 0 covering the whole file
	// or (for partial read sessions) its first half.
	whole, partial := 0, 0
	for _, proc := range tr.Procs {
		i := 0
		for i < len(proc.Steps) {
			if proc.Steps[i].Kind == OpClose {
				i++
				continue
			}
			f := proc.Steps[i].File
			want := int64(0)
			for i < len(proc.Steps) && proc.Steps[i].Kind != OpClose &&
				proc.Steps[i].File == f && proc.Steps[i].Offset == want {
				want += proc.Steps[i].Size
				i++
			}
			fb := int64(tr.FileBlocks[f])
			half := (fb + 1) / 2 * p.BlockSize
			switch want {
			case fb * p.BlockSize:
				whole++
			case half:
				partial++
			default:
				t.Fatalf("session on file %d covered %d bytes; file is %d bytes",
					f, want, fb*p.BlockSize)
			}
		}
	}
	if whole == 0 {
		t.Error("no whole-file sessions")
	}
	if partial == 0 {
		t.Error("no partial sessions despite PartialReadProb > 0")
	}
}

func TestSpriteLittleSharing(t *testing.T) {
	p := DefaultSpriteParams()
	tr, _ := GenerateSprite(p)
	users := make(map[blockdev.FileID]map[blockdev.NodeID]bool)
	for _, proc := range tr.Procs {
		for _, s := range proc.Steps {
			if users[s.File] == nil {
				users[s.File] = make(map[blockdev.NodeID]bool)
			}
			users[s.File][proc.Node] = true
		}
	}
	shared, totalUsed := 0, 0
	for _, u := range users {
		totalUsed++
		if len(u) > 1 {
			shared++
		}
	}
	frac := float64(shared) / float64(totalUsed)
	if frac > 0.2 {
		t.Errorf("%.0f%% of used files are shared; Sprite should share little", frac*100)
	}
	if shared == 0 {
		t.Error("no sharing at all; the shared pool is not being used")
	}
}

func TestSpriteTemporalLocality(t *testing.T) {
	p := DefaultSpriteParams()
	tr, _ := GenerateSprite(p)
	// Zipf reuse: each client must revisit files across sessions.
	proc := tr.Procs[0]
	seen := make(map[blockdev.FileID]int)
	for _, s := range proc.Steps {
		if s.Offset == 0 {
			seen[s.File]++
		}
	}
	revisited := 0
	for _, n := range seen {
		if n > 1 {
			revisited++
		}
	}
	if revisited == 0 {
		t.Error("client never re-opened a file; no temporal locality")
	}
}

func TestSpriteDBSessionsAreStrided(t *testing.T) {
	p := DefaultSpriteParams()
	p.Nodes = 2
	p.SessionsPerClient = 200
	p.DBProb = 0.5
	tr, _ := GenerateSprite(p)
	found := false
	for _, proc := range tr.Procs {
		for i := 1; i < len(proc.Steps); i++ {
			a, b := proc.Steps[i-1], proc.Steps[i]
			if a.Kind != OpRead || b.Kind != OpRead || a.File != b.File {
				continue
			}
			gap := (b.Offset - a.Offset) / p.BlockSize
			if gap == int64(p.DBStride) {
				found = true
			}
		}
	}
	if !found {
		t.Error("no strided db session found")
	}
}

func TestSpriteValidation(t *testing.T) {
	bad := []func(*SpriteParams){
		func(p *SpriteParams) { p.Nodes = 0 },
		func(p *SpriteParams) { p.FilesPerClient = 0 },
		func(p *SpriteParams) { p.SessionsPerClient = 0 },
		func(p *SpriteParams) { p.SharedFiles = -1 },
		func(p *SpriteParams) { p.SharedProb = 1.5 },
		func(p *SpriteParams) { p.SharedProb = 0.5; p.SharedFiles = 0 },
		func(p *SpriteParams) { p.MeanFileBlocks = 0 },
		func(p *SpriteParams) { p.WriteProb = -0.1 },
		func(p *SpriteParams) { p.ZipfSkew = 0 },
		func(p *SpriteParams) { p.MeanThink = -1 },
		func(p *SpriteParams) { p.BlockSize = 0 },
	}
	for i, mut := range bad {
		p := DefaultSpriteParams()
		mut(&p)
		if _, err := GenerateSprite(p); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestTraceValidateCatchesCorruption(t *testing.T) {
	p := DefaultSpriteParams()
	p.Nodes = 2
	p.SessionsPerClient = 3
	base, _ := GenerateSprite(p)
	if err := base.Validate(p.Nodes, p.BlockSize); err != nil {
		t.Fatal(err)
	}
	corrupt := func(f func(*Trace)) error {
		tr, _ := GenerateSprite(p)
		f(tr)
		return tr.Validate(p.Nodes, p.BlockSize)
	}
	cases := []func(*Trace){
		func(tr *Trace) { tr.Procs[0].Node = 99 },
		func(tr *Trace) { tr.Procs[0].Steps[0].File = 9999 },
		func(tr *Trace) { tr.Procs[0].Steps[0].Size = 0 },
		func(tr *Trace) { tr.Procs[0].Steps[0].Offset = -1 },
		func(tr *Trace) { tr.Procs[0].Steps[0].Offset = 1 << 40 },
		func(tr *Trace) { tr.Procs[0].Steps[0].Think = -1 },
		func(tr *Trace) { tr.Procs = nil },
	}
	for i, f := range cases {
		if corrupt(f) == nil {
			t.Errorf("corruption %d not detected", i)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := DefaultSpriteParams()
	p.Nodes = 3
	p.SessionsPerClient = 5
	p.FilesPerClient = 10
	orig, _ := GenerateSprite(p)
	var buf bytes.Buffer
	if err := Encode(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name {
		t.Errorf("name %q, want %q", got.Name, orig.Name)
	}
	if len(got.FileBlocks) != len(orig.FileBlocks) {
		t.Fatalf("file count %d, want %d", len(got.FileBlocks), len(orig.FileBlocks))
	}
	for id, b := range orig.FileBlocks {
		if got.FileBlocks[id] != b {
			t.Errorf("file %d blocks %d, want %d", id, got.FileBlocks[id], b)
		}
	}
	if len(got.Procs) != len(orig.Procs) {
		t.Fatalf("proc count differs")
	}
	for i := range orig.Procs {
		if got.Procs[i].Node != orig.Procs[i].Node {
			t.Errorf("proc %d node differs", i)
		}
		if len(got.Procs[i].Steps) != len(orig.Procs[i].Steps) {
			t.Fatalf("proc %d step count differs", i)
		}
		for j := range orig.Procs[i].Steps {
			if got.Procs[i].Steps[j] != orig.Procs[i].Steps[j] {
				t.Fatalf("proc %d step %d differs: %+v vs %+v",
					i, j, got.Procs[i].Steps[j], orig.Procs[i].Steps[j])
			}
		}
	}
}

func TestDecodeRejectsMalformedInput(t *testing.T) {
	cases := []string{
		"",                                  // no header
		"file 0 10\n",                       // no header
		"trace x\nstep 1 r 0 0 1\n",         // step before proc
		"trace x\nfile zero ten\n",          // bad file record
		"trace x\nproc abc\n",               // bad proc record
		"trace x\nproc 0\nstep 1 q 0 0 1\n", // unknown kind
		"trace x\nproc 0\nstep nope\n",      // bad step
		"trace x y\n",                       // extra header field
		"bogus\n",                           // unknown record
	}
	for i, c := range cases {
		if _, err := Decode(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestDecodeSkipsCommentsAndBlanks(t *testing.T) {
	in := "# comment\ntrace t\n\nfile 0 4\nproc 1\n# mid\nstep 5 w 0 0 8192\n"
	tr, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "t" || len(tr.Procs) != 1 || len(tr.Procs[0].Steps) != 1 {
		t.Errorf("decoded %+v", tr)
	}
	s := tr.Procs[0].Steps[0]
	if s.Kind != OpWrite || s.Think != 5 || s.Size != 8192 {
		t.Errorf("step = %+v", s)
	}
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Error("kind strings wrong")
	}
}

func TestDistinctBlocks(t *testing.T) {
	tr := &Trace{FileBlocks: map[blockdev.FileID]blockdev.BlockNo{0: 10, 1: 5}}
	if tr.DistinctBlocks() != 15 {
		t.Errorf("DistinctBlocks = %d", tr.DistinctBlocks())
	}
}
