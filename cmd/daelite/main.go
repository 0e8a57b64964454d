// Command daelite dimensions schedules, sets connections up over the
// configuration tree, runs traffic and checks the guarantees, serves
// admission control, and regenerates the paper's evaluation, one job per
// subcommand: `daelite <subcommand> [flags] [args]`. With no arguments it
// lists the subcommands; `daelite <subcommand> -h` lists the flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// command is one subcommand: run takes the arguments after its name and
// returns the process exit status.
type command struct {
	name    string
	summary string
	run     func(argv []string, stdout, stderr io.Writer) int
}

var commands = []command{
	{"sim", "simulate a mesh (or -spec, or -workload pack) under CBR traffic", exits("sim", runSim)},
	{"chaos", "seeded soak under link faults with online repair", exits("chaos", runChaos)},
	{"conform", "differential conformance sweep and mutation smoke (the CI gate)", exits("conform", runConform)},
	{"admd", "admission control-plane daemon: connection set-up over HTTP", exits("admd", runAdmd)},
	{"load", "seeded load driver for a running admd", exits("load", runLoad)},
	{"alloc", "contention-free slot allocation on a mesh", exits("alloc", runAlloc)},
	{"dimension", "smallest TDM wheel meeting bandwidth/latency requirements", exits("dimension", runDimension)},
	{"spec", "validate and build a JSON platform spec, print its schedule", exits("spec", runSpec)},
	{"area", "the analytical area model (Table II) and frequency estimates", exits("area", runArea)},
	{"bench", "regenerate the paper's evaluation tables", exits("bench", runBench)},
}

// run dispatches argv[0] to its subcommand. With no subcommand or an
// unknown one it prints the list of subcommands and returns 2.
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) > 0 {
		for _, c := range commands {
			if c.name == argv[0] {
				return c.run(argv[1:], stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "daelite: unknown subcommand %q\n", argv[0])
	}
	fmt.Fprintln(stderr, "usage: daelite <subcommand> [flags] [args]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-10s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(stderr, "\nRun 'daelite <subcommand> -h' for its flags.")
	return 2
}

// usageError is a command line a subcommand rejected; its flag set has
// already printed why.
type usageError struct{ error }

// exits adapts a subcommand body to the table: the body gets a flag set
// named after the subcommand, and the one exit path maps what it returns
// to a status — nil or -h to 0, a rejected command line to 2, any other
// error, printed under the subcommand's name, to 1.
func exits(name string, body func(fs *flag.FlagSet, argv []string, stdout, stderr io.Writer) error) func([]string, io.Writer, io.Writer) int {
	return func(argv []string, stdout, stderr io.Writer) int {
		fs := flag.NewFlagSet("daelite "+name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		err := body(fs, argv, stdout, stderr)
		var usage usageError
		switch {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case errors.As(err, &usage):
			return 2
		}
		fmt.Fprintf(stderr, "daelite %s: %v\n", name, err)
		return 1
	}
}

// parse parses argv into fs, marking a rejected command line for exits.
func parse(fs *flag.FlagSet, argv []string) error {
	err := fs.Parse(argv)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err}
	}
	return err
}

// onSignal returns a context cancelled by the first SIGINT or SIGTERM; a
// second one force-exits with the conventional 128+SIGINT status, the
// escape hatch when a drain hangs. stop unregisters the handler (the
// context then stays live), so in-process runs leave none behind.
func onSignal(stderr io.Writer) (ctx context.Context, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2) // the first signal and the forcing second
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			fmt.Fprintf(stderr, "received %s, shutting down (signal again to force)\n", sig)
			cancel()
		case <-done:
			return
		}
		select {
		case sig := <-ch:
			fmt.Fprintf(stderr, "received %s again, exiting\n", sig)
			os.Exit(130)
		case <-done:
		}
	}()
	return ctx, func() {
		signal.Stop(ch)
		close(done)
	}
}
