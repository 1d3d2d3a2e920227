// The model subcommand is the operator's door into a continuous-learning
// model registry directory (internal/learn) without booting a daemon:
//
//	solarsched model ls -learn-dir D             list every registered
//	                                             version with lineage,
//	                                             state and provenance
//	solarsched model show -learn-dir D <version> one version in full
//	                                             (provenance, digest,
//	                                             network shape)
//	solarsched model promote -learn-dir D <version>
//	                                             make a version the
//	                                             serving model of its
//	                                             lineage
//	solarsched model rollback -learn-dir D <key> restore the lineage's
//	                                             previous serving model
//
// Promotion and rollback edit the registry manifest atomically; a running
// daemon sharing the directory resolves the change on its next decide.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"solarsched/internal/learn"
)

// runModel is the `model` subcommand body, dispatched before the global
// flag.Parse like fleet and store.
func runModel(args []string) int {
	fs := flag.NewFlagSet("model", flag.ContinueOnError)
	dir := fs.String("learn-dir", "", "continuous-learning state directory (required)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: solarsched model <ls|show|promote|rollback> -learn-dir D [version|key]\n\nflags:\n")
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
	if *dir == "" {
		fs.Usage()
		return 2
	}
	reg, err := learn.OpenRegistry(*dir, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "solarsched: model: %v\n", err)
		return 1
	}

	switch verb {
	case "ls":
		if fs.NArg() != 0 {
			fs.Usage()
			return 2
		}
		versions := reg.List()
		if len(versions) == 0 {
			fmt.Println("no models registered")
			return 0
		}
		fmt.Printf("%-8s %-10s %-12s %-8s %-8s %-10s %s\n",
			"VERSION", "STATE", "DIGEST", "SAMPLES", "EPOCHS", "LOSS", "KEY")
		for _, v := range versions {
			fmt.Printf("%-8d %-10s %-12s %-8d %-8d %-10.5f %s\n",
				v.Version, v.State, short(v.Digest), v.Provenance.Samples,
				v.Provenance.FineEpochs, v.Provenance.Loss, v.Key)
		}
		return 0

	case "show":
		v, ok := parseVersionArg(fs)
		if !ok {
			fs.Usage()
			return 2
		}
		info, net, err := reg.Get(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "solarsched: model show: %v\n", err)
			return 1
		}
		cfg := net.Config()
		fmt.Printf("version:    %d\n", info.Version)
		fmt.Printf("lineage:    %s\n", info.Key)
		fmt.Printf("state:      %s\n", info.State)
		fmt.Printf("digest:     %s\n", info.Digest)
		fmt.Printf("created:    %s\n", time.Unix(info.CreatedUnix, 0).UTC().Format(time.RFC3339))
		fmt.Printf("network:    input %d, hidden %v, cap classes %d, tasks %d\n",
			cfg.InputDim, cfg.Hidden, cfg.CapClasses, cfg.TaskCount)
		p := info.Provenance
		fmt.Printf("provenance: %d samples, %d fine epochs, loss %.6f, seed %d\n",
			p.Samples, p.FineEpochs, p.Loss, p.Seed)
		if p.Parent != "" {
			fmt.Printf("parent:     %s (v%d)\n", short(p.Parent), p.ParentVersion)
		}
		return 0

	case "promote":
		v, ok := parseVersionArg(fs)
		if !ok {
			fs.Usage()
			return 2
		}
		info, _, err := reg.Get(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "solarsched: model promote: %v\n", err)
			return 1
		}
		promoted, err := reg.Promote(info.Key, v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "solarsched: model promote: %v\n", err)
			return 1
		}
		fmt.Printf("serving v%d (%s) for %s\n", promoted.Version, short(promoted.Digest), promoted.Key)
		return 0

	case "rollback":
		if fs.NArg() != 1 {
			fs.Usage()
			return 2
		}
		info, err := reg.Rollback(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "solarsched: model rollback: %v\n", err)
			return 1
		}
		fmt.Printf("serving v%d (%s) for %s\n", info.Version, short(info.Digest), info.Key)
		return 0

	default:
		fs.Usage()
		return 2
	}
}

func parseVersionArg(fs *flag.FlagSet) (int, bool) {
	if fs.NArg() != 1 {
		return 0, false
	}
	v, err := strconv.Atoi(fs.Arg(0))
	if err != nil || v < 1 {
		return 0, false
	}
	return v, true
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
