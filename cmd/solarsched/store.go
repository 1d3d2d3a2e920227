// The store subcommand is the operator's door into a durable artifact
// store directory (internal/store) without booting a daemon or a fleet:
//
//	solarsched store verify -dir D   verify every entry, quarantining
//	                                 failures; prints adoption stats and
//	                                 the quarantine contents
//	solarsched store gc -dir D       enforce -max-bytes / -max-age
//	                                 budgets (LRU eviction)
//	solarsched store ls -dir D       list entries and quarantine contents
//
// All three run offline against the directory; verify and gc take the
// store's maintenance lock and fail with "locked" (exit 1) while
// another process holds it.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"solarsched/internal/store"
)

// runStore is the `store` subcommand body, dispatched before the global
// flag.Parse like fleet and model.
func runStore(args []string) int {
	fs := flag.NewFlagSet("store", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required)")
	maxBytes := fs.Int64("max-bytes", 0, "gc: size budget in bytes, LRU-evicted (0 = unlimited)")
	maxAge := fs.Duration("max-age", 0, "gc: evict entries unread for this long (0 = unlimited)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: solarsched store <verify|gc|ls> -dir D [flags]\n\nflags:\n")
		fs.PrintDefaults()
	}
	if len(args) == 0 {
		fs.Usage()
		return 2
	}
	verb := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if *dir == "" || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	st, err := store.Open(*dir, store.Options{MaxBytes: *maxBytes, MaxAge: *maxAge})
	if err != nil {
		fmt.Fprintf(os.Stderr, "solarsched: store: %v\n", err)
		return 1
	}

	switch verb {
	case "verify":
		vs, err := st.Verify()
		if err != nil {
			fmt.Fprintf(os.Stderr, "solarsched: store verify: %v\n", err)
			return 1
		}
		fmt.Printf("store %s: %d checked, %d adopted, %d quarantined, %d bytes\n",
			*dir, vs.Checked, vs.Adopted, vs.Quarantined, vs.Bytes)
		if rc := printQuarantine(st); rc != 0 {
			return rc
		}
		if vs.Quarantined > 0 {
			return 1
		}
		return 0
	case "gc":
		gs, err := st.GC()
		if err != nil {
			fmt.Fprintf(os.Stderr, "solarsched: store gc: %v\n", err)
			return 1
		}
		fmt.Printf("store %s: %d scanned, %d evicted, %d bytes freed, %d bytes remaining\n",
			*dir, gs.Scanned, gs.Evicted, gs.FreedBytes, gs.RemainingBytes)
		return 0
	case "ls":
		entries, err := st.Entries()
		if err != nil {
			fmt.Fprintf(os.Stderr, "solarsched: store ls: %v\n", err)
			return 1
		}
		var total int64
		for _, e := range entries {
			fmt.Printf("%-64s  %10d  %s\n", e.Key, e.Size, e.ModTime.UTC().Format(time.RFC3339))
			total += e.Size
		}
		fmt.Printf("store %s: %d entries, %d bytes\n", *dir, len(entries), total)
		return printQuarantine(st)
	default:
		fmt.Fprintf(os.Stderr, "solarsched: store: unknown verb %q\n", verb)
		fs.Usage()
		return 2
	}
}

// printQuarantine lists the quarantine directory — the corrupt entries
// Verify (or a crash-recovery sweep) pulled out of service. Operators
// decide whether to inspect or delete them; the store never does.
func printQuarantine(st *store.Store) int {
	qs, err := st.QuarantineContents()
	if err != nil {
		fmt.Fprintf(os.Stderr, "solarsched: store: listing quarantine: %v\n", err)
		return 1
	}
	if len(qs) == 0 {
		fmt.Println("quarantine: empty")
		return 0
	}
	fmt.Printf("quarantine: %d entries\n", len(qs))
	for _, q := range qs {
		fmt.Printf("  %-62s  %10d  %s\n", q.Key, q.Size, q.ModTime.UTC().Format(time.RFC3339))
	}
	return 0
}
