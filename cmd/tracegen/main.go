// Command tracegen generates the LLC access trace of one or more suite
// frames and stores them in the binary trace container, for offline
// analysis with llcstat or external tools.
//
// Usage:
//
//	tracegen -out traces/ [-scale 0.25] [-apps AssnCreed] [-frames 1]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"gspc/internal/trace"
	"gspc/internal/workload"
)

func main() {
	var (
		out      = flag.String("out", ".", "output directory for .trc files")
		scale    = flag.Float64("scale", 0.25, "linear frame scale")
		apps     = flag.String("apps", "", "comma-separated application abbreviations (default all)")
		frames   = flag.Int("frames", 0, "max frames per application (0 = all)")
		profiles = flag.String("profiles", "", "JSON file of custom application profiles (replaces the built-in suite)")
		template = flag.Bool("template", false, "print the built-in suite as JSON (a template for -profiles) and exit")
	)
	flag.Parse()
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "tracegen: -scale %v is not a finite positive number\n", *scale)
		os.Exit(2)
	}

	if *template {
		if err := workload.MarshalSuite(os.Stdout, workload.Profiles()); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		return
	}

	suite := workload.Suite()
	if *profiles != "" {
		f, err := os.Open(*profiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		ps, err := workload.LoadProfiles(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		suite = nil
		for _, p := range ps {
			for i := 0; i < p.Frames; i++ {
				suite = append(suite, workload.FrameJob{App: p, Index: i})
			}
		}
	}

	want := map[string]bool{}
	if *apps != "" {
		for _, a := range strings.Split(*apps, ",") {
			want[strings.TrimSpace(a)] = true
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}

	perApp := map[string]int{}
	for _, j := range suite {
		if len(want) > 0 && !want[j.App.Abbrev] {
			continue
		}
		if *frames > 0 && perApp[j.App.Abbrev] >= *frames {
			continue
		}
		perApp[j.App.Abbrev]++

		tr := trace.GeneratePacked(j, *scale)
		name := fmt.Sprintf("%s_%d.trc", j.App.Abbrev, j.Index)
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		if err := trace.WriteTrace(f, tr); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %d accesses\n", path, tr.Len())
	}
}
