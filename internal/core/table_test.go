package core

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
)

// tableKey is a history window of order 1 + i%MaxOrder, distinct for
// each i.
func tableKey(i int) histKey {
	k := histKey{n: int8(1 + i%MaxOrder)}
	for j := range int(k.n) {
		k.p[j] = pair{interval: int32(i), size: int32(j)}
	}
	return k
}

// keys lists the table's keys, least recently updated first.
func (t *table) keys() []histKey {
	var ks []histKey
	for pos := t.head; pos >= 0; pos = t.entries[pos].next {
		ks = append(ks, t.entries[pos].key)
	}
	return ks
}

// TestTableDisplacementOrder: the victim is the least recently updated
// entry; entries updated back to back (one request, one tick) leave in
// the order they were updated; get, and getOrCreate of an existing key,
// do not count as updates.
func TestTableDisplacementOrder(t *testing.T) {
	tb := newTable(3)
	keys := func(is ...int) []histKey {
		var ks []histKey
		for _, i := range is {
			ks = append(ks, tableKey(i))
		}
		return ks
	}
	created, updated := pair{interval: 'c'}, pair{interval: 'u'}
	steps := []struct {
		op   string
		key  int
		want []histKey // least recently updated first
	}{
		{"update", 1, keys(1)},
		{"update", 2, keys(1, 2)},
		{"update", 3, keys(1, 2, 3)},
		{"get", 1, keys(1, 2, 3)},
		{"getOrCreate", 1, keys(1, 2, 3)},
		{"update", 4, keys(2, 3, 4)}, // 1 was read, not updated: it goes first
		{"update", 2, keys(3, 4, 2)},
		{"update", 5, keys(4, 2, 5)},
		{"getOrCreate", 6, keys(2, 5, 6)}, // a created entry is the newest
		{"get", 4, keys(2, 5, 6)},         // absent: nothing created
		{"update", 6, keys(2, 5, 6)},
		{"update", 7, keys(5, 6, 7)},
	}
	for i, s := range steps {
		k := tableKey(s.key)
		switch s.op {
		case "get":
			if found := tb.get(&k) != nil; found != slices.Contains(s.want, k) {
				t.Fatalf("step %d: get(%d) found = %v", i, s.key, found)
			}
		case "getOrCreate":
			tb.getOrCreate(&k).setLink(created)
		case "update":
			tb.at(tb.update(&k)).setLink(updated)
		}
		if got := tb.keys(); !reflect.DeepEqual(got, s.want) {
			t.Fatalf("step %d (%s %d): order %v, want %v", i, s.op, s.key, got, s.want)
		}
		if tb.len() != len(s.want) || tb.len() > 3 {
			t.Fatalf("step %d: len %d, order %v", i, tb.len(), s.want)
		}
	}
	// Nodes live as long as their entry and start empty, also in a
	// displaced entry's reused slot.
	k1, k6 := tableKey(1), tableKey(6)
	if nd := tb.get(&k6); len(nd.linkCounts()) != 2 || nd.mru != updated {
		t.Errorf("entry 6 holds %+v, want links c and u, u the most recent", *nd)
	}
	if tb.get(&k1) != nil {
		t.Error("displaced entry 1 still readable")
	}
	if nd := tb.getOrCreate(&k1); !reflect.DeepEqual(*nd, node{more: nd.more}) || len(nd.more) != 0 {
		t.Errorf("re-created entry 1 holds %+v, want an empty node", *nd)
	}
}

// linkCounts returns every link of the node with its count.
func (nd *node) linkCounts() map[pair]uint32 {
	links := make(map[pair]uint32)
	if nd.firstCount > 0 {
		links[nd.first] = nd.firstCount
	}
	for pr, c := range nd.more {
		if _, dup := links[pr]; dup || c == 0 {
			panic(fmt.Sprintf("link %v held twice, or with no count", pr))
		}
		links[pr] = c
	}
	return links
}

// refNode keeps every link in one map: the reference FuzzTable and
// TestNodeManyLinks hold node to.
type refNode struct {
	links    map[pair]uint32
	mru, top pair
	topCount uint32
}

func (nd *refNode) setLink(pr pair) {
	if nd.links == nil {
		nd.links = make(map[pair]uint32)
	}
	c := nd.links[pr] + 1
	nd.links[pr] = c
	nd.mru = pr
	if c > nd.topCount {
		nd.top, nd.topCount = pr, c
	}
}

// matches reports whether nd holds the reference's links, counts, mru
// and top.
func (nd *node) matches(ref *refNode) bool {
	return nd.mru == ref.mru && nd.top == ref.top && nd.topCount == ref.topCount &&
		maps.Equal(nd.linkCounts(), ref.links)
}

// TestNodeManyLinks gives one node 10 000 distinct links, most
// traversed once and some again and again, and holds its counts, top
// and mru to the reference after every traversal. Live seq_prefetch
// builds nodes of high fan-out, so a link is found through the map, not
// by a walk.
func TestNodeManyLinks(t *testing.T) {
	const distinct = 10000
	var nd node
	var ref refNode
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 3*distinct; i++ {
		var pr pair
		switch {
		case i < distinct:
			pr = pair{interval: int32(i) - distinct/2, size: int32(i % 7)}
		case i%3 == 0:
			pr = pair{interval: int32(rng.Intn(distinct)) - distinct/2, size: int32(rng.Intn(7))}
		default:
			pr = pair{interval: int32(rng.Intn(16)) - distinct/2, size: int32(rng.Intn(7))}
		}
		nd.setLink(pr)
		ref.setLink(pr)
		if nd.mru != ref.mru || nd.top != ref.top || nd.topCount != ref.topCount {
			t.Fatalf("traversal %d of %v: mru %v top %v (%d), reference %v %v (%d)",
				i, pr, nd.mru, nd.top, nd.topCount, ref.mru, ref.top, ref.topCount)
		}
	}
	if !nd.matches(&ref) {
		t.Fatalf("the node's %d links differ from the reference's %d", len(nd.linkCounts()), len(ref.links))
	}
	if len(ref.links) < distinct {
		t.Fatalf("%d distinct links, want at least %d", len(ref.links), distinct)
	}
}

// refTable is the map + list table the slab replaced, kept as the
// reference FuzzTable holds it to.
type refTable struct {
	max     int
	entries map[histKey]*list.Element // each holds a *refEntry
	order   *list.List                // front = least recently updated
}

type refEntry struct {
	key histKey
	val refNode
}

func newRefTable(max int) refTable {
	return refTable{max: max, entries: make(map[histKey]*list.Element), order: list.New()}
}

func (t *refTable) get(k histKey) *refNode {
	if el := t.entries[k]; el != nil {
		return &el.Value.(*refEntry).val
	}
	return nil
}

func (t *refTable) getOrCreate(k histKey) *refNode { return &t.entry(k).Value.(*refEntry).val }

func (t *refTable) update(k histKey) *refNode {
	el := t.entry(k)
	t.order.MoveToBack(el)
	return &el.Value.(*refEntry).val
}

func (t *refTable) entry(k histKey) *list.Element {
	if el := t.entries[k]; el != nil {
		return el
	}
	if len(t.entries) >= t.max {
		victim := t.order.Front()
		t.order.Remove(victim)
		delete(t.entries, victim.Value.(*refEntry).key)
	}
	el := t.order.PushBack(&refEntry{key: k})
	t.entries[k] = el
	return el
}

// tableFuzzKeys is FuzzTable's key alphabet: 24 windows of orders 1 to
// 8, then, for each index size a table of at most 16 entries uses (8,
// 16 and 32 slots), four windows whose home is that index's last slot
// (and so the last slot of every smaller index too): they collide, and
// their probe runs wrap around the end.
var tableFuzzKeys = func() []histKey {
	var ks []histKey
	for i := range 24 {
		ks = append(ks, tableKey(i))
	}
	for _, slots := range []uint64{8, 16, 32} {
		shift := uint(64 - bits.TrailingZeros64(slots))
		found := 0
		for v := int32(1000); found < 4; v++ {
			k := histKey{n: 2, p: [MaxOrder]pair{{interval: v, size: 1}, {interval: -v, size: 2}}}
			if k.hash()>>shift == slots-1 {
				ks = append(ks, k)
				found++
			}
		}
	}
	return ks
}()

// FuzzTable drives the slab table and the reference with one fuzzed
// sequence of get, getOrCreate and update calls (each creating or
// updating call then adds a link to the node it returns) and compares,
// after every call, presence, len, displacement order and every node:
// its links and their counts, mru and top, against a reference node
// that keeps every link in one map.
// Every other getOrCreate goes through getOrCreateAt with the position
// the last update returned, as IS_PPM links through it; entries
// displaced since, or rewritten under another key, are what it must
// see. The first byte picks the cap, 1 to 16; then each call takes two
// bytes, the call and its link, and the key.
func FuzzTable(f *testing.F) {
	seq := func(max byte, keys ...int) []byte {
		s := []byte{max - 1}
		for i, k := range keys {
			s = append(s, byte(i%7*3+i%3), byte(k))
		}
		return s
	}
	f.Add(seq(3, 1, 2, 3, 1, 4, 2, 5, 6, 6, 7))
	f.Add(seq(1, 0, 0, 9, 9, 0))
	f.Add(seq(16, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 3, 18, 19))
	// Long runs at caps that keep the index at 8, 16 and 32 slots, half
	// their keys colliding ones, so that entries are displaced in and
	// out of runs that wrap.
	for _, max := range []byte{3, 7, 16} {
		s, x := []byte{max - 1}, uint32(max)
		for range 300 {
			x = x*1664525 + 1013904223
			key := byte(x >> 8 % 24)
			if x>>20&1 == 1 {
				key = 24 + byte(x>>12%12)
			}
			s = append(s, byte(x>>24), key)
		}
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, calls []byte) {
		if len(calls) == 0 {
			return
		}
		max := 1 + int(calls[0]%16)
		tb, ref := newTable(max), newRefTable(max)
		last := int32(-1)
		for i := 1; i+1 < len(calls); i += 2 {
			k := tableFuzzKeys[int(calls[i+1])%len(tableFuzzKeys)]
			link := pair{interval: int32(calls[i] / 3 % 5)}
			switch calls[i] % 3 {
			case 0:
				if got, want := tb.get(&k), ref.get(k); (got == nil) != (want == nil) {
					t.Fatalf("call %d: get found %v, reference %v", i, got != nil, want != nil)
				}
			case 1:
				if last >= 0 && calls[i]/15%2 == 1 {
					tb.getOrCreateAt(last, &k).setLink(link)
				} else {
					tb.getOrCreate(&k).setLink(link)
				}
				ref.getOrCreate(k).setLink(link)
			case 2:
				last = tb.update(&k)
				tb.at(last).setLink(link)
				ref.update(k).setLink(link)
			}
			if tb.len() != len(ref.entries) {
				t.Fatalf("call %d: len %d, reference %d", i, tb.len(), len(ref.entries))
			}
			var want []histKey
			for el := ref.order.Front(); el != nil; el = el.Next() {
				want = append(want, el.Value.(*refEntry).key)
			}
			if got := tb.keys(); !reflect.DeepEqual(got, want) {
				t.Fatalf("call %d: order %v, reference %v", i, got, want)
			}
			for _, k := range want {
				got, want := tb.get(&k), ref.get(k)
				if got == nil || !got.matches(want) {
					t.Fatalf("call %d: node %v is %+v, reference %+v", i, k, got, want)
				}
			}
		}
	})
}

// TestPredictionsAtCap pins what the pattern graphs predict once their
// tables are full and displacing. The golden simulator cells never
// reach DefaultMaxNodes, so nothing else holds displacement order end
// to end. One seeded stream of runs (sequential, strided, cycles,
// repeats, jumps) is fed to IS_PPM under both link policies and to
// BlockPPM, at orders 1, 2, 3 and 8 and caps from one node up; after
// each request a short chain is walked, and every answer — ok,
// fallback, offset and size — goes into one FNV-64a digest per
// configuration.
func TestPredictionsAtCap(t *testing.T) {
	const requests = 20000
	stream := randomStream{rng: rand.New(rand.NewSource(30)), blocks: 3000}
	reqs := make([]Request, requests)
	for i := range reqs {
		reqs[i] = stream.next()
	}
	digest := func(p Predictor) uint64 {
		h := fnv.New64a()
		var buf [10]byte
		for i, r := range reqs {
			cur := p.Observe(r, Tick(i))
			for step := 0; step < 3; step++ {
				pred, next, ok := p.Predict(cur)
				buf[0], buf[1] = 0, 0
				if ok {
					buf[0] = 1
				}
				if pred.Fallback {
					buf[1] = 1
				}
				binary.LittleEndian.PutUint32(buf[2:], uint32(pred.Offset))
				binary.LittleEndian.PutUint32(buf[6:], uint32(pred.Size))
				h.Write(buf[:])
				if !ok {
					break
				}
				cur = next
			}
		}
		return h.Sum64()
	}
	want := map[string]uint64{
		"IS_PPM:1/max1/policy0":   0x12fa20ec91fd3e60,
		"IS_PPM:1/max1/policy1":   0x12fa20ec91fd3e60,
		"BlockPPM:1/max1":         0x20a3841fe68cd44a,
		"IS_PPM:1/max3/policy0":   0x9b0f6fb8508cb37a,
		"IS_PPM:1/max3/policy1":   0x730d6f2dd7ef7623,
		"BlockPPM:1/max3":         0x2bd7df134390fef9,
		"IS_PPM:1/max16/policy0":  0x335f470128d9e5d2,
		"IS_PPM:1/max16/policy1":  0x5b822cc1988b4e25,
		"BlockPPM:1/max16":        0x6e3bc11e07a1437b,
		"IS_PPM:1/max200/policy0": 0x1b9bfb5338a34f8b,
		"IS_PPM:1/max200/policy1": 0x19c652456a6b8020,
		"BlockPPM:1/max200":       0x25d152cfd7201da2,
		"IS_PPM:2/max1/policy0":   0xbee0afa865eea18b,
		"IS_PPM:2/max1/policy1":   0xbee0afa865eea18b,
		"BlockPPM:2/max1":         0x23c9b122ca9f0514,
		"IS_PPM:2/max3/policy0":   0xcccd346adcf3ad1c,
		"IS_PPM:2/max3/policy1":   0xacb2c656c388228d,
		"BlockPPM:2/max3":         0x8ba07f0f99505d08,
		"IS_PPM:2/max16/policy0":  0x01091f3870b79f1e,
		"IS_PPM:2/max16/policy1":  0xb740ebe369a4c8f4,
		"BlockPPM:2/max16":        0x216ed81c6725c9bd,
		"IS_PPM:2/max200/policy0": 0xc4f9cf961467cba1,
		"IS_PPM:2/max200/policy1": 0x997e7bb51805cece,
		"BlockPPM:2/max200":       0x36a16b832a49e84b,
		"IS_PPM:3/max1/policy0":   0x3f3b8fc2cc3eedfc,
		"IS_PPM:3/max1/policy1":   0x3f3b8fc2cc3eedfc,
		"BlockPPM:3/max1":         0x733b492bcd2d06cd,
		"IS_PPM:3/max3/policy0":   0x4a69f14f8ff77dfb,
		"IS_PPM:3/max3/policy1":   0x5118dd367b92ef93,
		"BlockPPM:3/max3":         0xecbbb6f97f3506aa,
		"IS_PPM:3/max16/policy0":  0x998b6f8088057891,
		"IS_PPM:3/max16/policy1":  0x1064e13412e13264,
		"BlockPPM:3/max16":        0xa4511f4cfe4d9db1,
		"IS_PPM:3/max200/policy0": 0x8232e1aa40bad1e1,
		"IS_PPM:3/max200/policy1": 0xc8f9bcdd009096ef,
		"BlockPPM:3/max200":       0xc52b4b6c536b5d2d,
		"IS_PPM:8/max1/policy0":   0xee2ff691dd6a4db5,
		"IS_PPM:8/max1/policy1":   0xee2ff691dd6a4db5,
		"BlockPPM:8/max1":         0xcf7e163c6566e316,
		"IS_PPM:8/max3/policy0":   0xf44029322b31f459,
		"IS_PPM:8/max3/policy1":   0xf44029322b31f459,
		"BlockPPM:8/max3":         0xae9f12da288c46d6,
		"IS_PPM:8/max16/policy0":  0x26ea7f58dd7a6373,
		"IS_PPM:8/max16/policy1":  0x049bddac6e27181f,
		"BlockPPM:8/max16":        0x5e82641c3f1e1860,
		"IS_PPM:8/max200/policy0": 0x352a2977336e21fe,
		"IS_PPM:8/max200/policy1": 0xf7d842402fe73226,
		"BlockPPM:8/max200":       0xa69ee5421e7380bd,
	}
	var now strings.Builder
	check := func(name string, p Predictor, nodes func() int, max int) {
		sum := digest(p)
		fmt.Fprintf(&now, "%q: %#016x,\n", name, sum)
		if sum != want[name] {
			t.Errorf("%s: digest %#016x, want %#016x", name, sum, want[name])
		}
		if n := nodes(); n != max {
			t.Errorf("%s: ends with %d nodes, so it never displaced one", name, n)
		}
	}
	for _, order := range []int{1, 2, 3, 8} {
		for _, max := range []int{1, 3, 16, 200} {
			for _, policy := range []LinkPolicy{0 /* most recent */, MostProbableLinkPolicy} {
				p := newISPPMSized(order, max)
				p.SetLinkPolicy(policy)
				check(fmt.Sprintf("%s/max%d/policy%d", p.Name(), max, policy), p, p.nodeCount, max)
			}
			p := newBlockPPM(order, max)
			check(fmt.Sprintf("%s/max%d", p.Name(), max), p, p.nodeCount, max)
		}
	}
	if t.Failed() {
		t.Logf("digests now:\n%s", now.String())
	}
}

// TestObserveFlatAtCap is ROADMAP 1a's "flat rounds": when every
// request brings a history the full table has never seen — what two
// readers interleaving on one file produce — Observe must cost about
// what it costs while the table still has room. Displacement by a scan
// of the whole map made it 28x for IS_PPM at the default bound.
func TestObserveFlatAtCap(t *testing.T) {
	const window = DefaultMaxNodes / 4
	preds := []func() Predictor{
		func() Predictor { return NewISPPM(1) },
		func() Predictor { return NewBlockPPM(1) },
	}
	for _, fresh := range preds {
		t.Run(fresh().Name(), func(t *testing.T) {
			// Request i starts at the i-th triangular number: every
			// offset and every interval is new, so each Observe
			// creates one graph node.
			next := 0
			observe := func(p Predictor, n int) time.Duration {
				start := time.Now()
				for ; n > 0; n-- {
					next++
					p.Observe(Request{Offset: blockdev.BlockNo(next * (next + 1) / 2), Size: 1}, Tick(next))
				}
				return time.Since(start)
			}
			// Best of a few runs: a collection or a preemption inside
			// one millisecond-long window is not the predictor's cost.
			var below, atCap time.Duration
			for run := 0; run < 5; run++ {
				p := fresh()
				next = 0
				observe(p, window)
				b := observe(p, window) // table a quarter to half full
				observe(p, 2*DefaultMaxNodes)
				c := observe(p, window) // full for a whole bound's worth of requests
				if run == 0 || b < below {
					below = b
				}
				if run == 0 || c < atCap {
					atCap = c
				}
			}
			t.Logf("per Observe: %v below the bound, %v at it", below/window, atCap/window)
			if atCap > 8*below {
				t.Errorf("Observe at the bound costs %v, %.1fx the %v below it; want <= 8x",
					atCap/window, float64(atCap)/float64(below), below/window)
			}
		})
	}
}
