// Command lapcached serves a live linear-aggressive prefetching block
// cache over TCP: the paper's predictors and driver running against
// wall-clock time instead of the simulator's virtual clock.
//
// Usage:
//
//	lapcached -addr :7020 -alg Ln_Agr_IS_PPM:3 [-cache-blocks N]
//	          [-store mem|dir] [-latency 2ms] [-trace FILE] [-strict]
//	          [-shards N]
//	          [-peers a:7020,b:7020,c:7020] [-advertise a:7020]
//
// -shards N stripes the engine's block cache over N mutexes and runs N
// accept loops on the listener; they share one connection table and
// close ledger. Responses ride a vectored
// (writev) path and, when a pipelined client has more requests
// already buffered, coalesce into a single syscall.
//
// A -trace file (in tracegen's text format) supplies the file table so
// prefetch chains clip at each file's real end. -debug-addr exposes
// the counter snapshot as expvar JSON over HTTP.
//
// With -peers, the daemon joins a cooperative peer group: the listed
// members (which must include this node's own -advertise address)
// form a consistent-hash ring assigning every file one owner. Reads
// and writes of files owned elsewhere are forwarded to the owner — a
// remote memory hit instead of a local disk read — and only the owner
// runs a file's prefetch chain, so the linear bound holds cluster-wide.
// Every member must be started with the same -peers list (order does
// not matter) and the same -block-size. The list is the ring for the
// node's whole life: a request of a file whose owner is down fails,
// and ownership never moves.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lapcache"
	"repro/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7020", "listen address")
		algName     = flag.String("alg", "Ln_Agr_IS_PPM:3", "prefetch algorithm (paper notation; see -list-algs; the prefix is the throttle: Ln_Agr_, Ad_Agr_, Ad4_Agr_, K4_Agr_, Agr_)")
		listAlgs    = flag.Bool("list-algs", false, "print the known algorithm names and exit")
		cacheBlocks = flag.Int("cache-blocks", 4096, "cache capacity in blocks")
		blockSize   = flag.Int("block-size", 8192, "block size in bytes")
		shards      = flag.Int("shards", 8, "cache mutex stripes and connection accept loops")
		workers     = flag.Int("workers", 4, "prefetch worker goroutines")
		queueLen    = flag.Int("queue", 64, "prefetch queue bound (backpressure)")
		storeKind   = flag.String("store", "mem", "backing store: mem or dir")
		dir         = flag.String("dir", "", "directory for -store dir")
		latency     = flag.Duration("latency", 2*time.Millisecond, "injected read latency for -store mem")
		traceFile   = flag.String("trace", "", "trace file supplying the file table")
		strict      = flag.Bool("strict", false, "panic if a file ever exceeds the degree policy's outstanding limit")
		idleTimeout = flag.Duration("idle-timeout", 0, "drop connections idle for this long (0 = never)")
		debugAddr   = flag.String("debug-addr", "", "HTTP address for expvar counters (off when empty)")
		peers       = flag.String("peers", "", "comma-separated cluster members, self included: the fixed ring (empty = single node)")
		advertise   = flag.String("advertise", "", "address peers dial for this node (default -addr)")
	)
	flag.Parse()

	if *listAlgs {
		names := core.AlgNames()
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	alg, err := core.LookupAlg(*algName)
	if err != nil {
		log.Fatalf("%v (try -list-algs)", err)
	}

	cfg := lapcache.Config{
		Alg:          alg,
		BlockSize:    *blockSize,
		CacheBlocks:  *cacheBlocks,
		Shards:       *shards,
		Workers:      *workers,
		QueueLen:     *queueLen,
		StrictLinear: *strict,
	}

	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			log.Fatalf("open trace: %v", err)
		}
		tr, err := workload.Decode(f)
		f.Close()
		if err != nil {
			log.Fatalf("parse trace %s: %v", *traceFile, err)
		}
		cfg.FileBlocks = tr.FileBlocks
		log.Printf("file table: %d files from %s (%s)", len(tr.FileBlocks), *traceFile, tr.Name)
	}

	var fileStore *lapcache.FileStore
	switch *storeKind {
	case "mem":
		cfg.Store = lapcache.NewMemStore(*blockSize, *latency)
	case "dir":
		if *dir == "" {
			log.Fatal("-store dir needs -dir")
		}
		fs, err := lapcache.NewFileStore(*dir, int64(*blockSize))
		if err != nil {
			log.Fatalf("open file store: %v", err)
		}
		fileStore = fs
		cfg.Store = fs
	default:
		log.Fatalf("unknown store %q", *storeKind)
	}

	var node *cluster.Node
	if *peers != "" {
		self := *advertise
		if self == "" {
			self = *addr
		}
		ccfg := cluster.Config{
			Self:  self,
			Peers: splitList(*peers),
			Logf:  log.Printf,
		}
		if !slices.Contains(ccfg.Peers, self) {
			log.Fatalf("-peers %q does not include this node's advertise address %q", *peers, self)
		}
		n, err := cluster.NewNode(ccfg)
		if err != nil {
			log.Fatalf("cluster: %v", err)
		}
		node = n
		cfg.Remote = node
	}

	engine, err := lapcache.New(cfg)
	if err != nil {
		log.Fatalf("start engine: %v", err)
	}

	if *debugAddr != "" {
		expvar.Publish("lapcache", expvar.Func(func() any { return engine.Snapshot() }))
		go func() {
			log.Printf("expvar counters on http://%s/debug/vars", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	srv := lapcache.NewServer(engine)
	srv.IdleTimeout = *idleTimeout
	srv.Shards = *shards
	if node != nil {
		node.Start()
		log.Printf("cluster: self=%s members=%v", node.Self(), node.MemberAddrs())
	}
	log.Printf("lapcached: alg=%s cache=%d blocks (%d B each) store=%s listening on %s",
		alg.Name(), *cacheBlocks, *blockSize, *storeKind, ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("shutting down")
		srv.Close()
	}()

	if err := srv.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
	if node != nil {
		node.Close()
	}
	engine.Shutdown()
	if fileStore != nil {
		fileStore.Close()
	}
	log.Printf("final: %s", engine.Snapshot())
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
