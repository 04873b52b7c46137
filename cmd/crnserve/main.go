// Command crnserve exposes a sweep cell cache directory over HTTP, so
// crnsweep workers on several machines share one record namespace and
// one lease table (DESIGN.md §6.2).  The on-disk format is exactly the
// local cache's: a directory of content-addressed JSON records, so a
// served cache can also be read (or seeded) directly by -cache-dir
// runs and by crnquery.
//
// Usage:
//
//	crnserve -dir .sweep-cache [-addr 127.0.0.1:8771]
//
// Example (one coordinator machine, three workers):
//
//	crnserve -dir /srv/sweep-cells -addr 0.0.0.0:8771 &
//	crnsweep -spec sweep.json -worker -backend http://coordinator:8771  # on each worker
//	crnsweep -spec sweep.json -assemble -backend http://coordinator:8771 -json grid.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"repro/internal/cache"
	"repro/internal/cache/httpstore"
)

var errFlagParse = errors.New("flag parse error")

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintf(os.Stderr, "crnserve: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is main minus the process boundary; it returns only on error or
// listener shutdown, announcing the bound address on stderr first so
// scripts can start it with -addr :0 and scrape the port.
func run(argv []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("crnserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "cache directory to serve (required; created if missing)")
	addr := fs.String("addr", "127.0.0.1:8771", "listen address (host:port; port 0 picks a free port)")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required (the cache directory to serve)")
	}
	store, err := cache.Open(*dir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "crnserve: serving %s on http://%s\n", store.Dir(), ln.Addr())
	return http.Serve(ln, httpstore.NewServer(store))
}
