// Command repairctl answers repair-counting questions over a database
// instance and a query, from the command line.
//
// The instance is either a text file in the codec of internal/relational:
//
//	key Employee 1
//	Employee(1, Bob, HR)
//	Employee(1, Bob, IT)
//
// or a binary .cqs snapshot produced by the build subcommand — every
// command detects the format from the file contents, and "-" reads the
// instance from stdin.
//
// Usage:
//
//	repairctl build  -db employees.db -o employees.cqs
//	repairctl total  -db employees.db
//	repairctl count  -db employees.cqs -query "exists x,y,z . (Employee(1,x,y) & Employee(2,z,y))"
//	repairctl count  -db employees.db -query "..." -exact gray     # or: factorized, ie, compile, enum
//	repairctl count  -db employees.db -query "..." -explain
//
// build converts a text instance into a mmap-able columnar snapshot that
// loads with zero parsing; count picks the best algorithm by default, and
// -exact pins one engine — factorized (planner-selected per-component
// engines), gray (every component forced onto the Gray-delta walk), ie
// (whole-instance inclusion–exclusion), compile (per-component d-DNNF
// circuits, reused across recounts) or enum (plain enumeration) — so the
// engines are comparable. -explain prints the exact-counting plan (one
// line per connected component: block and box counts, the cost of the Gray
// walk, of component-local inclusion–exclusion and of the circuit engine,
// plus the node count of an already-cached circuit, and the chosen engine)
// before counting.
//
// Snapshots are mutable without rewriting: apply appends a checksummed
// delta-journal block of inserts/deletes (one "+ Fact" or "- Fact" per
// line, e.g. from workloadgen -updates) after the sealed base, every load
// replays the journal through the incremental maintenance machinery, and
// compact reseals a clean snapshot with identical counts.
//
//	repairctl apply   -db employees.cqs -ops stream.ops
//	echo '+ Employee(3, Zoe, HR)' | repairctl apply -db employees.cqs
//	repairctl compact -db employees.cqs -o resealed.cqs
//
// serve keeps one snapshot mapped in a long-lived HTTP/JSON daemon: count,
// decide, rank and explain probes are priced by an admission ladder (cheap
// plans exact, expensive plans degraded to the FPRAS, hopeless ones
// refused with a structured 429), an -ops file is tailed, journaled and
// compacted crash-safely, and startup recovers torn journal tails.
//
//	repairctl serve -db employees.cqs -addr :8347 -ops stream.ops
//	curl 'http://localhost:8347/v1/count?q=exists+i,n+.+Employee(i,n,%27IT%27)'
//	curl 'http://localhost:8347/v1/stats'
//
// With -probs FILE (per-fact "weight<TAB>Fact" annotations, e.g. from
// workloadgen -kind prob-stream), /v1/prob serves the probability that a
// random repair entails the query, evaluated on the compiled d-DNNF
// circuits as an outward-rounded interval; unannotated facts weigh 1, and
// without -probs the endpoint serves the uniform ratio count/total. There
// is no approximate rung for weighted counting: probes past the exact
// budget get a structured 429.
//
//	repairctl serve -db prob.cqs -probs weights.probs
//	curl 'http://localhost:8347/v1/prob?q=...'
//
// The daemon splits the cores between two kinds of parallelism:
// -serve-workers slots run probes concurrently (throughput under many
// clients), while -workers goroutines parallelize the enumeration
// inside ONE exact count or sampling loop (latency of a single
// expensive probe). More of one is less of the other under load; serve
// and coordinate default -serve-workers to GOMAXPROCS and -workers to a
// quarter of it, so many cheap probes run wide while a lone hot count
// still gets a few cores. Hot repeated probes bypass counting entirely:
// a shared cache (bounded by -cache-entries, default 512; 0 disables)
// keeps compiled counters, admission prices and finished exact results
// keyed by (query, epoch, version), and /v1/stats reports its
// hit/miss/eviction counters.
//
//	repairctl decide -db employees.db -query "..."
//	repairctl freq   -db employees.db -query "..."
//	repairctl approx -db employees.db -query "..." -eps 0.1 -delta 0.05 -seed 1
//	repairctl rank   -db employees.db -query "exists i . Employee(i, n, 'IT')"
//	repairctl blocks -db employees.db
//	cat employees.db | repairctl decide -db - -query "..."
//
// Sharded counting splits the exact count across processes or machines:
// shard slices a sealed snapshot into K self-contained shard snapshots
// (one cost-balanced group of query-graph components each, -explain prints
// the per-shard cost table) plus a CQSM manifest; count -shard verifies a
// shard against the manifest, counts it, and writes a CQSP partial file;
// merge recombines a complete, digest-verified partial set into the exact
// global count — bit-identical to counting the unsharded snapshot.
//
//	repairctl shard -db employees.cqs -query "..." -k 4 -o shards/ -explain
//	repairctl count -db shards/shard-000.cqs -query "..." \
//	    -shard shards/manifest.cqsm -partial shards/p0.cqsp
//	repairctl merge -manifest shards/manifest.cqsm shards/p*.cqsp
//
// Distributed serving runs the sharded pipeline as a live fleet: worker
// serves one shard snapshot over HTTP (assigned by the coordinator, and
// remembered across restarts in its -dir sidecar), while coordinate owns
// the full snapshot, cuts epoch shard sets into -shard-dir, assigns the
// -peers fleet, tails -ops and streams each delta to the shards it
// touches. coordinate is serve plus the fleet: it takes every serve flag
// (-probs included) and serves every serve endpoint (/v1/prob and
// /v1/rank included) with the same bodies, except that a count of the
// partition -query fans out to the fleet — every partial digest-, epoch-
// and version-verified before the merge, so answers are bit-identical to
// the single-node daemon or a structured error, never a miscount. A down
// worker degrades those counts to exact local counting until the
// maintenance loop heals it.
//
//	repairctl worker -dir w0/ -addr :9101
//	repairctl worker -dir w1/ -addr :9102
//	repairctl coordinate -db employees.cqs -query "exists i,n . Employee(i,n,'IT')" \
//	    -peers http://localhost:9101,http://localhost:9102 \
//	    -shard-dir shards/ -ops stream.ops -addr :8347
//	curl 'http://localhost:8347/v1/count?q=exists+i,n+.+Employee(i,n,%27IT%27)'
//	curl 'http://localhost:8347/v1/stats'   # fleet state: epoch, acks, pending
//	curl 'http://localhost:9101/v1/stats'   # one shard's view
//
// count also takes -workers N to size the worker pool of the parallel
// exact engines (0 means GOMAXPROCS, uniformly across every -exact
// engine).
//
// Non-Boolean queries: count/decide/freq/approx take -tuple "c1,c2,..." to
// bind the free variables (sorted by name); rank scores every candidate
// tuple by its relative frequency.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/big"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repaircount"
	"repaircount/internal/cluster"
	"repaircount/internal/core"
	"repaircount/internal/faultfs"
	"repaircount/internal/relational"
	"repaircount/internal/server"
	"repaircount/internal/store"
	"repaircount/internal/workload"
)

func main() {
	// Deterministic crash testing: REPAIRCOUNT_FAULT="budget=N[,exit]"
	// makes the N-th faultfs write unit fail (or fail-stop the process),
	// so scripts can drive the daemon's write path into every crash point.
	faultfs.FromEnv("REPAIRCOUNT_FAULT")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "repairctl:", err)
		os.Exit(1)
	}
}

// stdin is the reader "-db -" consumes; tests substitute it.
var stdin io.Reader = os.Stdin

// instance is one opened database instance, whichever format it came in.
type instance struct {
	db   *repaircount.Database
	keys *repaircount.KeySet
	snap *repaircount.Snapshot // non-nil when loaded from a snapshot
}

// counter builds a counter, reusing the snapshot's preloaded block
// sequence and index when the instance came from one.
func (in *instance) counter(q repaircount.Formula) (*repaircount.Counter, error) {
	if in.snap != nil {
		return in.snap.Counter(q)
	}
	return repaircount.NewCounter(in.db, in.keys, q)
}

// blockSeq returns the canonical block sequence, preloaded for snapshots.
func (in *instance) blockSeq() []repaircount.Block {
	if in.snap != nil {
		return in.snap.Blocks()
	}
	return relational.Blocks(in.db, in.keys)
}

// rank scores candidate tuples, sharing the snapshot's structures when
// available.
func (in *instance) rank(q repaircount.Formula) ([]repaircount.RankedAnswer, error) {
	if in.snap != nil {
		return in.snap.RankAnswers(q)
	}
	return repaircount.RankAnswers(in.db, in.keys, q)
}

func (in *instance) close() {
	if in.snap != nil {
		in.snap.Close()
	}
}

// openInstance loads the instance at path — a text file, a .cqs snapshot
// (detected by magic, not extension), or "-" for stdin.
func openInstance(path string) (*instance, error) {
	if path == "-" {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return nil, fmt.Errorf("read stdin: %w", err)
		}
		if store.Sniff(data) {
			snap, err := repaircount.DecodeSnapshot(data)
			if err != nil {
				return nil, err
			}
			return &instance{db: snap.Database(), keys: snap.Keys(), snap: snap}, nil
		}
		db, keys, err := repaircount.ParseInstanceString(string(data))
		if err != nil {
			return nil, err
		}
		return &instance{db: db, keys: keys}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("database file %q does not exist (pass a text instance, a .cqs snapshot, or '-' to read stdin)", path)
		}
		return nil, err
	}
	defer f.Close()
	// Peek instead of read-and-seek so non-seekable paths (FIFOs, process
	// substitution) keep working.
	br := bufio.NewReader(f)
	head, _ := br.Peek(8)
	if store.Sniff(head) {
		if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
			snap, err := repaircount.OpenSnapshot(path)
			if err != nil {
				return nil, err
			}
			return &instance{db: snap.Database(), keys: snap.Keys(), snap: snap}, nil
		}
		// A snapshot streamed through a pipe cannot be mapped; decode it
		// from memory like the stdin path.
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, err
		}
		snap, err := repaircount.DecodeSnapshot(data)
		if err != nil {
			return nil, err
		}
		return &instance{db: snap.Database(), keys: snap.Keys(), snap: snap}, nil
	}
	db, keys, err := repaircount.ParseInstance(br)
	if err != nil {
		return nil, err
	}
	return &instance{db: db, keys: keys}, nil
}

// serveCountWorkers resolves the -workers flag for the serving daemons.
// The daemons favor probe-level parallelism (one slot per core), but a
// lone expensive probe should not be stuck single-threaded on an
// otherwise idle machine, so unset defaults to a small fraction of the
// cores instead of the library default of 1.
func serveCountWorkers(flagged int) int {
	if flagged > 0 {
		return flagged
	}
	return max(1, runtime.GOMAXPROCS(0)/4)
}

// configCacheEntries maps the -cache-entries flag (0 disables) onto the
// Config field (negative disables, 0 selects the default).
func configCacheEntries(flagged int) int {
	if flagged <= 0 {
		return -1
	}
	return flagged
}

// run executes one repairctl invocation; it is the testable core of main.
func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return usageError()
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		dbPath   = fs.String("db", "", "path to the database instance (text or .cqs; '-' reads stdin)")
		out      = fs.String("o", "", "output path for build (default: input path with .cqs extension)")
		queryStr = fs.String("query", "", "first-order query")
		tuple    = fs.String("tuple", "", "comma-separated constants binding the query's free variables")
		eps      = fs.Float64("eps", 0.1, "FPRAS relative error ε")
		delta    = fs.Float64("delta", 0.05, "FPRAS failure probability δ")
		seed     = fs.Uint64("seed", 1, "FPRAS random seed")
		exact    = fs.String("exact", "auto", "exact engine for count: auto, factorized, gray, ie, compile or enum")
		explain  = fs.Bool("explain", false, "print the exact-counting plan (per-component engine and cost) before the count")
		opsPath  = fs.String("ops", "-", "path to the update-op stream for apply ('-' reads stdin)")
		workers  = fs.Int("workers", 0, "worker goroutines for the parallel exact engines (0 = GOMAXPROCS)")
		kShards  = fs.Int("k", 2, "number of shards for shard")
		shardMan = fs.String("shard", "", "CQSM manifest path: count one shard snapshot and write a partial")
		partial  = fs.String("partial", "", "output path for the CQSP partial written by count -shard")
		manifest = fs.String("manifest", "", "CQSM manifest path for merge")

		addr         = fs.String("addr", "localhost:8347", "listen address for serve (':0' picks a free port, printed on startup)")
		poll         = fs.Duration("poll", 0, "ops-file poll interval for serve and coordinate (0 = 200ms)")
		deadline     = fs.Duration("deadline", 0, "per-probe wall-clock budget for serve, coordinate and worker (0 = 30s)")
		exactBudget  = fs.Int64("exact-budget", 0, "serve and coordinate admission ceiling on planned exact work (0 = the enumeration budget)")
		maxSamples   = fs.Int64("max-samples", 0, "serve and coordinate admission ceiling on the FPRAS sample bound (0 = the sampler cap)")
		compactBytes = fs.Int64("compact-bytes", 0, "journal bytes that trigger a compaction, and coordinate's re-shard (0 = 1MiB, negative disables)")
		serveWorkers = fs.Int("serve-workers", 0, "probe worker slots for serve, coordinate and worker (0 = GOMAXPROCS)")
		cacheEntries = fs.Int("cache-entries", server.DefaultCacheEntries,
			"bound on the serve/coordinate probe cache (compiled counters, admissions, results); 0 disables it")
		probsPath = fs.String("probs", "", "per-fact probability annotation file for the /v1/prob endpoint of serve and coordinate (weight<TAB>Fact lines, e.g. from workloadgen -kind prob-stream)")

		workerDir    = fs.String("dir", "", "worker state directory (required for worker; holds the assignment sidecar)")
		peers        = fs.String("peers", "", "comma-separated worker base URLs for coordinate")
		shardDir     = fs.String("shard-dir", "", "directory receiving one epoch-N shard set per re-shard (required for coordinate)")
		retries      = fs.Int("retries", 0, "fetch attempts per shard for coordinate (0 = 3)")
		retryBackoff = fs.Duration("retry-backoff", 0, "initial inter-attempt backoff for coordinate, doubling per retry (0 = 50ms)")
		hedgeAfter   = fs.Duration("hedge-after", 0, "per-attempt timeout before a slow shard fetch is abandoned and re-fired (0 = 2s)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	// merge consumes a manifest plus partial files, not an instance.
	if cmd == "merge" {
		if *manifest == "" {
			return fmt.Errorf("merge: -manifest is required")
		}
		if len(fs.Args()) == 0 {
			return fmt.Errorf("merge: pass the CQSP partial files as arguments")
		}
		n, err := repaircount.MergePartialFiles(*manifest, fs.Args()...)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, n)
		return nil
	}

	// worker holds no data until a coordinator assigns it a shard, so it
	// takes no -db at all — only a state directory.
	if cmd == "worker" {
		if *workerDir == "" {
			return fmt.Errorf("worker: -dir is required")
		}
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Dir:          *workerDir,
			Workers:      *serveWorkers,
			CountWorkers: *workers,
			Deadline:     *deadline,
		})
		if err != nil {
			return err
		}
		defer w.Close()
		return serveHandler(stdout, *addr, w.Handler())
	}

	if *dbPath == "" {
		return fmt.Errorf("-db is required")
	}

	// apply, compact, serve and coordinate operate on the snapshot file
	// itself, not a loaded instance. serve and coordinate run the same
	// probe server, configured by the same flags.
	ops := *opsPath
	if ops == "-" {
		// For apply, -ops defaults to stdin; the servers tail a file, so
		// "-" means no update stream.
		ops = ""
	}
	serveCfg := server.Config{
		SnapshotPath: *dbPath,
		OpsPath:      ops,
		Workers:      *serveWorkers,
		CountWorkers: serveCountWorkers(*workers),
		Deadline:     *deadline,
		ExactBudget:  *exactBudget,
		MaxSamples:   *maxSamples,
		Eps:          *eps,
		Delta:        *delta,
		Seed:         *seed,
		Poll:         *poll,
		CompactBytes: *compactBytes,
		CacheEntries: configCacheEntries(*cacheEntries),
		ProbsPath:    *probsPath,
	}
	switch cmd {
	case "apply":
		return applyOps(stdout, *dbPath, *opsPath)
	case "compact":
		return compact(stdout, *dbPath, *out)
	case "serve":
		s, err := server.New(serveCfg)
		if err != nil {
			return err
		}
		return serve(stdout, *addr, s)
	case "coordinate":
		if *queryStr == "" {
			return fmt.Errorf("coordinate: -query is required")
		}
		if *peers == "" {
			return fmt.Errorf("coordinate: -peers is required")
		}
		if *shardDir == "" {
			return fmt.Errorf("coordinate: -shard-dir is required")
		}
		co, err := cluster.New(cluster.Config{
			Config:       serveCfg,
			Query:        *queryStr,
			Peers:        strings.Split(*peers, ","),
			ShardDir:     *shardDir,
			Retries:      *retries,
			RetryBackoff: *retryBackoff,
			HedgeAfter:   *hedgeAfter,
		})
		if err != nil {
			return err
		}
		return serve(stdout, *addr, co)
	}

	src, err := openInstance(*dbPath)
	if err != nil {
		return err
	}
	defer src.close()

	switch cmd {
	case "build":
		return build(stdout, src, *dbPath, *out)
	case "total":
		fmt.Fprintln(stdout, relational.NumRepairsOfBlocks(src.blockSeq()))
		return nil
	case "blocks":
		for _, b := range src.blockSeq() {
			fmt.Fprintf(stdout, "%s  size=%d\n", b.Key, b.Size())
			for _, fact := range b.Facts {
				fmt.Fprintf(stdout, "  %s\n", fact)
			}
		}
		return nil
	}

	if *queryStr == "" {
		return fmt.Errorf("-query is required for %q", cmd)
	}
	q, err := repaircount.ParseQuery(*queryStr)
	if err != nil {
		return err
	}

	if cmd == "rank" {
		ranked, err := src.rank(q)
		if err != nil {
			return err
		}
		for _, r := range ranked {
			parts := make([]string, len(r.Tuple))
			for i, c := range r.Tuple {
				parts[i] = string(c)
			}
			fl, _ := r.Frequency.Float64()
			fmt.Fprintf(stdout, "%-30s %-10s %8.4f\n", strings.Join(parts, ","), r.Frequency.RatString(), fl)
		}
		return nil
	}

	if *tuple != "" {
		var consts []repaircount.Const
		for _, c := range strings.Split(*tuple, ",") {
			consts = append(consts, repaircount.Const(strings.TrimSpace(c)))
		}
		q, err = repaircount.Bind(q, consts...)
		if err != nil {
			return err
		}
	}
	counter, err := src.counter(q)
	if err != nil {
		return err
	}

	switch cmd {
	case "count":
		if *shardMan != "" {
			return countShard(stdout, src, counter, q, *shardMan, *partial, *workers)
		}
		engine, err := repaircount.ParseEngine(*exact)
		if err != nil {
			return fmt.Errorf("-exact: %w", err)
		}
		if *explain {
			if err := explainPlan(stdout, counter, engine); err != nil {
				return err
			}
		}
		var n *big.Int
		algo := engine
		if engine == repaircount.EngineAuto {
			n, algo, err = counter.CountWorkers(*workers)
		} else {
			n, err = counter.CountWithWorkers(engine, *workers)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\t(algorithm: %s, keywidth: %d, fragment: %s)\n", n, algo, counter.Keywidth(), counter.Fragment())
	case "shard":
		return shard(stdout, src, counter, *kShards, *out, *explain)
	case "analyze":
		return analyze(stdout, counter, *eps, *delta)
	case "decide":
		fmt.Fprintln(stdout, counter.Decide())
	case "freq":
		r, err := counter.RelativeFrequency()
		if err != nil {
			return err
		}
		fl, _ := r.Float64()
		fmt.Fprintf(stdout, "%s\t(≈ %.6f)\n", r.RatString(), fl)
	case "approx":
		est, err := counter.Approximate(*eps, *delta, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\t(t=%d samples, %d hits, ε=%g, δ=%g)\n",
			est.Value.Text('f', 2), est.Samples, est.Hits, *eps, *delta)
	default:
		return usageError()
	}
	return nil
}

// build converts the opened instance into a .cqs snapshot with all
// precomputed sections, so later loads skip parsing and indexing entirely.
func build(stdout io.Writer, src *instance, dbPath, out string) error {
	if out == "" {
		if dbPath == "-" {
			return fmt.Errorf("build: -o is required when reading stdin")
		}
		out = strings.TrimSuffix(dbPath, ".db") + ".cqs"
	}
	if err := store.WriteFile(out, src.db, src.keys); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\t%d facts, %d bytes\n", out, src.db.Len(), st.Size())
	return nil
}

// applyOps appends the op stream at opsPath as one delta-journal block to
// the snapshot at dbPath — an O(ops) append that leaves the sealed base
// untouched. Loads replay the journal; compact reseals it away.
func applyOps(stdout io.Writer, dbPath, opsPath string) error {
	var r io.Reader
	if opsPath == "-" {
		r = stdin
	} else {
		f, err := os.Open(opsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	updates, err := workload.ParseUpdates(r)
	if err != nil {
		return err
	}
	if len(updates) == 0 {
		return fmt.Errorf("apply: no ops in %s", opsPath)
	}
	ops := make([]store.JournalOp, len(updates))
	for i, u := range updates {
		ops[i] = store.JournalOp{Del: u.Del, Fact: u.Fact}
	}
	if err := store.AppendJournal(dbPath, ops); err != nil {
		return err
	}
	st, err := os.Stat(dbPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\t%d ops appended, %d bytes\n", dbPath, len(ops), st.Size())
	return nil
}

// compact reseals a snapshot (base plus journal) as a clean journal-free
// snapshot at out.
func compact(stdout io.Writer, dbPath, out string) error {
	if out == "" {
		return fmt.Errorf("compact: -o is required")
	}
	if err := store.CompactFile(dbPath, out); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\t%d bytes\n", out, st.Size())
	return nil
}

// shard slices the opened instance into k cost-balanced shard snapshots
// plus a CQSM manifest in dir; explain additionally prints the per-shard
// cost table the greedy bin-packing produced.
func shard(stdout io.Writer, src *instance, counter *repaircount.Counter, k int, dir string, explain bool) error {
	if dir == "" {
		return fmt.Errorf("shard: -o DIR is required")
	}
	plan, err := counter.PlanShards(k)
	if err != nil {
		return err
	}
	var baseCRC uint64
	if src.snap != nil {
		if n := src.snap.NumJournalOps(); n > 0 {
			return fmt.Errorf("shard: snapshot carries %d journal ops; run repairctl compact first", n)
		}
		baseCRC = src.snap.Digest()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	set, err := counter.WriteShards(dir, plan, baseCRC)
	if err != nil {
		return err
	}
	if explain {
		for s, ms := range set.Manifest.Shards {
			fmt.Fprintf(stdout, "shard %d: components=%d blocks=%d cost=%d -> %s (digest %016x)\n",
				s, ms.Components, ms.Blocks, ms.Cost, set.Paths[s], ms.CRC)
		}
		fmt.Fprintf(stdout, "excluded factor: %s\n", set.Manifest.Outer)
	}
	fmt.Fprintf(stdout, "%s\t%d shards, manifest digest %016x\n", set.ManifestPath, plan.K, set.ManifestCRC)
	return nil
}

// countShard counts one shard snapshot against its manifest: the snapshot
// is located in the shard set by its sealed-base digest, the query is
// checked against the partition's, and the result is written as a CQSP
// partial for merge.
func countShard(stdout io.Writer, src *instance, counter *repaircount.Counter, q repaircount.Formula, manifestPath, partialPath string, workers int) error {
	if partialPath == "" {
		return fmt.Errorf("count: -partial OUT is required with -shard")
	}
	man, mcrc, err := store.ReadManifestFile(manifestPath)
	if err != nil {
		return err
	}
	if qs := fmt.Sprintf("%v", q); qs != man.Query {
		return fmt.Errorf("count: query %q is not the manifest's partition query %q", qs, man.Query)
	}
	if src.snap == nil {
		return fmt.Errorf("count: -shard needs a .cqs shard snapshot, not a text instance")
	}
	if n := src.snap.NumJournalOps(); n > 0 {
		return fmt.Errorf("count: shard snapshot carries %d journal ops and no longer matches its manifest digest", n)
	}
	digest := src.snap.Digest()
	idx := -1
	for i, s := range man.Shards {
		if s.CRC == digest {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("count: snapshot digest %016x is not a shard of %s", digest, manifestPath)
	}
	p, err := counter.CountPartial(workers)
	if err != nil {
		return err
	}
	pf := &store.PartialFile{
		ManifestCRC: mcrc,
		Shard:       idx,
		K:           len(man.Shards),
		SnapshotCRC: digest,
		Inner:       p.Inner,
		NonEnt:      p.NonEnt,
	}
	if err := store.WritePartialFile(partialPath, pf); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\tshard %d/%d, inner %s, nonent %s\n", partialPath, idx, len(man.Shards), p.Inner, p.NonEnt)
	return nil
}

// explainPlan prints the exact-counting plan for the selected engine: the
// overall algorithm and, for the factorized engine, one line per connected
// component with its block and box counts, the costs of both per-component
// engines, and the planner's choice.
func explainPlan(stdout io.Writer, counter *repaircount.Counter, engine repaircount.EngineKind) error {
	p, err := counter.ExplainPlan(engine)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "plan: %s\n", p)
	if p.AlwaysTrue {
		fmt.Fprintf(stdout, "  always true: some homomorphism uses only always-present facts (#CQA = |rep|)\n")
	}
	// Costs saturate at MaxInt64 when a strategy is infeasible (a choice
	// space past 2^63, ≥ 62 boxes, or the masked path's missing boxes);
	// print the sentinel as "inf" rather than a bogus number.
	cost := func(v int64) string {
		if v == math.MaxInt64 {
			return "inf"
		}
		return fmt.Sprintf("%d", v)
	}
	for i, c := range p.Components {
		memo := ""
		if c.Memoized {
			memo = ", memoized"
		}
		if c.CircuitNodes > 0 {
			// A cached d-DNNF circuit reprices the compile engine at its
			// node count (one bottom-up evaluation), not a fresh compile.
			memo += fmt.Sprintf(", circuit=%d nodes", c.CircuitNodes)
		}
		ie := cost(c.IECost)
		if c.Boxes == 0 {
			ie = "n/a"
		}
		fmt.Fprintf(stdout, "  component %d: blocks=%d boxes=%d gray-cost=%s ie-cost=%s compile-cost=%s -> %s (cost %s%s)\n",
			i, c.Blocks, c.Boxes, cost(c.GrayCost), ie, cost(c.CompileCost), c.Engine, cost(c.Cost), memo)
	}
	return nil
}

// analyze reports which machinery of the paper applies to the instance:
// fragment, keywidth (the Λ-hierarchy level, Theorem 5.1), block
// statistics, the certificate space of Algorithm 2, safe-plan
// applicability ([8] dichotomy), the Λ[1] closed form, and the FPRAS
// sample bound for the requested (ε, δ).
func analyze(stdout io.Writer, counter *repaircount.Counter, eps, delta float64) error {
	inst := counter.Instance()
	fmt.Fprintf(stdout, "fragment:            %s\n", counter.Fragment())
	fmt.Fprintf(stdout, "keywidth kw(Q,Σ):    %d  (#CQA(Q,Σ) is Λ[%d]-complete, Thm 5.1)\n",
		counter.Keywidth(), counter.Keywidth())
	blocks := inst.Blocks
	maxB := relational.MaxBlockSize(blocks)
	conflicting := 0
	for _, b := range blocks {
		if b.Size() > 1 {
			conflicting++
		}
	}
	fmt.Fprintf(stdout, "blocks:              %d total, %d conflicting, max size m = %d\n",
		len(blocks), conflicting, maxB)
	fmt.Fprintf(stdout, "repairs:             %s\n", counter.Total())
	if !inst.IsEP {
		fmt.Fprintf(stdout, "query is not existential positive: decision is NP-complete and\n")
		fmt.Fprintf(stdout, "counting #P-complete under ≤log_m (Thms 3.2/3.3); no FPRAS unless RP=NP (Thm 6.1).\n")
		return nil
	}
	nCerts := 0
	for range inst.Certificates() {
		nCerts++
	}
	boxes := inst.CertificateBoxes()
	fmt.Fprintf(stdout, "certificates:        %d  (distinct boxes: %d)\n", nCerts, len(boxes))
	fmt.Fprintf(stdout, "decision #CQA>0:     %v  (logspace certificate search, Thm 3.4)\n", counter.Decide())
	if _, ok := inst.CountSafePlan(); ok {
		fmt.Fprintf(stdout, "safe plan:           applies — exact counting is polynomial ([8] dichotomy)\n")
	} else {
		fmt.Fprintf(stdout, "safe plan:           does not apply (unsafe or not a self-join-free CQ)\n")
	}
	if _, err := inst.CountLambda1(); err == nil {
		fmt.Fprintf(stdout, "Λ[1] closed form:    applies — linear-time exact count (Thm 4.4(1))\n")
	} else {
		fmt.Fprintf(stdout, "Λ[1] closed form:    does not apply (some box pins ≥ 2 blocks)\n")
	}
	bound := core.SampleBound(maxB, counter.Keywidth(), eps, delta)
	fmt.Fprintf(stdout, "FPRAS sample bound:  t = (2+ε)·m^k/ε²·ln(2/δ) = %s  (ε=%g, δ=%g)\n",
		bound, eps, delta)
	return nil
}

// serve runs a probe server (the daemon or the coordinator) until
// SIGINT/SIGTERM: the listen address is printed first (parse it when
// -addr ends in :0), and shutdown drains in-flight probes before the
// server is closed and its snapshot unmapped.
func serve(stdout io.Writer, addr string, s interface {
	Handler() http.Handler
	Config() server.Config
	Recovered() int64
	Close() error
}) error {
	defer s.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())
	if dropped := s.Recovered(); dropped > 0 {
		fmt.Fprintf(stdout, "recovered %s: dropped %d torn journal bytes\n", s.Config().SnapshotPath, dropped)
	}
	return serveUntilSignal(ln, s.Handler())
}

// serveHandler is the listen half of serve for the shard worker, which
// holds no snapshot of its own: print the bound address, then serve
// until SIGINT/SIGTERM.
func serveHandler(stdout io.Writer, addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())
	return serveUntilSignal(ln, h)
}

func serveUntilSignal(ln net.Listener, h http.Handler) error {
	httpSrv := &http.Server{Handler: h}
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return err
	}
	return nil
}

func usageError() error {
	return fmt.Errorf("usage: repairctl <build|apply|compact|serve|worker|coordinate|total|blocks|count|decide|freq|approx|rank|analyze|shard|merge> -db FILE|- [-query Q] [flags]")
}
