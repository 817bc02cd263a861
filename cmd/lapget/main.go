// Command lapget is the lapcached client: single block reads, counter
// snapshots, and whole-trace replays against a live server.
//
// Usage:
//
//	lapget -addr HOST:PORT -file 3 -offset 0 -size 4    one read
//	lapget -addr HOST:PORT -stats                       server counters
//	lapget -addr HOST:PORT -replay trace.txt            replay a trace
//
// A replay drives one goroutine per traced process over one shared
// pipelined connection, whose window is the trace's process count (a
// traced process has at most one request in flight), and then prints
// the client-side hit ratio next to the server's prefetch-timeliness
// counters — the live analogue of the simulator's experiment report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/blockdev"
	"repro/internal/lapclient"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7020", "server address")
		file       = flag.Int("file", 0, "file ID to read")
		offset     = flag.Int("offset", 0, "first block")
		size       = flag.Int("size", 1, "blocks to read")
		wantData   = flag.Bool("data", false, "print the returned block data as hex")
		stats      = flag.Bool("stats", false, "print the server's counter snapshot as JSON")
		replay     = flag.String("replay", "", "replay this trace file through the server")
		thinkScale = flag.Float64("think-scale", 0, "multiply trace think times by this (0 = no thinking)")
	)
	flag.Parse()

	switch {
	case *stats:
		c := dial(*addr)
		defer c.Close()
		snap, err := lapclient.Stats(c)
		if err != nil {
			log.Fatalf("stats: %v", err)
		}
		out, _ := json.MarshalIndent(snap, "", "  ")
		fmt.Println(string(out))

	case *replay != "":
		f, err := os.Open(*replay)
		if err != nil {
			log.Fatalf("open trace: %v", err)
		}
		tr, err := workload.Decode(f)
		f.Close()
		if err != nil {
			log.Fatalf("parse trace %s: %v", *replay, err)
		}
		res, err := lapclient.ReplayTrace([]string{*addr}, tr, lapclient.ReplayOptions{ThinkScale: *thinkScale})
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		fmt.Printf("replayed %s: %d procs, %d requests (%d reads, %d writes, %d closes) in %v\n",
			tr.Name, res.Procs, res.Requests, res.Reads, res.Writes, res.Closes, res.Elapsed)
		fmt.Printf("client hit ratio: %.3f (%d/%d reads fully cached)\n",
			res.HitRatio(), res.ReadHits, res.Reads)
		c := dial(*addr)
		defer c.Close()
		snap, err := lapclient.Stats(c)
		if err != nil {
			log.Fatalf("stats: %v", err)
		}
		fmt.Printf("server: %s\n", snap)

	default:
		c := dial(*addr)
		defer c.Close()
		var flags wire.Flags
		if *wantData {
			flags = wire.FlagWantData
		}
		rh, data, err := c.Do(lapclient.Req(wire.OpRead, flags,
			blockdev.FileID(*file), blockdev.BlockNo(*offset), int32(*size)), nil, nil)
		if err != nil {
			log.Fatalf("read: %v", err)
		}
		fmt.Printf("read %d:[%d,+%d] hit=%v\n", *file, *offset, *size, rh.Flags&wire.FlagHit != 0)
		if *wantData {
			fmt.Printf("% x\n", data)
		}
	}
}

func dial(addr string) *lapclient.Conn {
	c, err := lapclient.DialConn(addr, 0)
	if err != nil {
		log.Fatalf("dial %s: %v", addr, err)
	}
	return c
}
