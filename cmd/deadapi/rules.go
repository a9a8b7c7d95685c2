package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// rules keep the tree's "one X" design in place. Each row names where
// it applies, what breaks it and why the design is so; check runs every
// row on the tree it type-checked for the dead-API report.
//
// Objects and sites are named as the allowlist names identifiers: a
// package (its directory in the tree, or a standard import path), a dot,
// then a name, a Type.Method or a Type.Field. A site is a file or the
// declaration (func, method, var or struct field) a use sits in. A row
// whose object names nothing is reported stale.
var rules = []rule{
	{
		name:   "one-barrier-site",
		scope:  []string{"internal/controller/"},
		pred:   uses{objs: []string{"internal/openflow.BarrierRequest"}, at: []string{"internal/controller/dispatch.go"}, n: 1},
		reason: "one southbound path: every FlowMod+barrier pair the controller sends goes through Engine.walk, and the walk's re-stamped request in dispatch.go is the one BarrierRequest the package builds; naming the type anywhere else in the package is a second path coming back",
	},
	{
		name:   "one-install-writer",
		scope:  []string{"internal/controller/"},
		pred:   uses{objs: []string{"internal/ofconn.Conn.WriteBatch"}, at: []string{"internal/controller/dispatch.go"}, n: 1},
		reason: "one writer per walk: the walk writes its own installs, and its one WriteBatch call in dispatch.go is the one install write; a second call or method value of it anywhere in the package is a second install writer",
	},
	{
		name:   "no-writer-goroutine",
		scope:  []string{"internal/controller/dispatch.go"},
		pred:   noGo{},
		reason: "one writer per walk: a go statement in dispatch.go is a writer goroutine coming back",
	},
	{
		name:   "flowmod-at-wire",
		scope:  []string{"internal/controller/"},
		pred:   uses{objs: []string{"internal/openflow.FlowMod"}, at: []string{"internal/controller.wireMod", "internal/controller.wireMod.build", "internal/controller.Controller.PathFlowMod"}},
		reason: "a plan node is its rule: an execution DAG holds the flow's match once and a 4-byte rule per node, and a FlowMod exists only at the wire edge — wireMod, which the walk's write and the decentralized push encode from, and PathFlowMod, which callers outside the engine build one with; an openflow.FlowMod anywhere else in the controller is a FlowMod stored per node coming back",
	},
	{
		name:   "no-round-schedule",
		scope:  []string{"!bench/"},
		pred:   uses{objs: []string{"internal/core.Schedule", "internal/core.ScheduleByName", "internal/core.PlanFromSchedule"}},
		reason: "one plan IR: every scheduler returns a *core.Plan and rounds are only a view of a layered plan (core.Layered); the round-schedule names in internal/core/deprecated.go stay only for bench/, and nothing else uses them",
	},
	{
		name:   "retired-plan-names",
		scope:  []string{"!bench/"},
		tests:  true,
		pred:   retired{names: []string{"PlanScheduler", "ScheduleByName", "PlanFromSchedule", "internal/core.Schedule"}, except: []string{"internal/core/deprecated.go"}},
		reason: "one plan IR: outside bench/, tests included, nothing declares or names a round schedule or the capability that once converted between the two; internal/core/deprecated.go is the one exception",
	},
	{
		name:  "deprecated-aliases",
		scope: []string{"internal/core/deprecated.go"},
		pred: exactDecls{
			"type Schedule = Plan",
			"func ScheduleByName(in *Instance, name string, props Property) (*Plan, error) {\n\treturn PlanByName(in, name, props, false)\n}",
			"func PlanFromSchedule(p *Plan) *Plan { return p }",
		},
		reason: "one plan IR: internal/core/deprecated.go holds the three aliases bench/ still compiles against, with no logic of their own",
	},
	{
		name:   "dense-core",
		scope:  []string{"internal/core/", "!internal/core/multipolicy.go"},
		pred:   noType{shape: mapOf, of: "internal/topo.NodeID"},
		reason: "one index: internal/core keeps every per-switch fact of an update in arrays and State bitsets over Instance's dense index and resolves a NodeID with one binary search (Instance.idx); a NodeID-keyed map, under any alias, is the second representation coming back, as it did once already; multipolicy.go's cross-flow tables are keyed across instances, which share no index",
	},
	{
		name:   "one-timer-heap",
		scope:  []string{"internal/", "!internal/simclock/"},
		pred:   noImport{"container/heap"},
		reason: "one timer heap: every delay under internal/ is an event on simclock's (time, seq) queue or a runtime timer behind Clock; a second container/heap is a private scheduler coming back",
	},
	{
		name:   "no-private-queue",
		scope:  []string{"internal/", "!internal/simclock/"},
		pred:   retired{names: []string{"pushLocked()", "popLocked()"}},
		reason: "one timer heap: a hand-rolled pushLocked / popLocked queue outside internal/simclock is a private scheduler coming back",
	},
	{
		name:   "inert-loop-shim",
		scope:  []string{"!bench/"},
		pred:   uses{objs: []string{"internal/switchsim.LoopGroup", "internal/switchsim.NewLoopGroup", "internal/switchsim.Config.Loops"}, at: []string{"internal/switchsim/loops.go", "internal/switchsim.Config.Loops"}},
		reason: "one switch layout: LoopGroup and Config.Loops are an inert shim (loops.go) that only bench/ names; using them anywhere else is the layout knob coming back",
	},
	{
		name:   "no-loops-knob",
		scope:  []string{"internal/switchsim/"},
		pred:   retired{names: []string{"Loops"}, except: []string{"internal/switchsim/loops.go", "internal/switchsim.Config.Loops"}},
		reason: "one switch layout: a Loops declared in internal/switchsim beside the deprecated Config field is the layout knob coming back",
	},
	{
		name:   "one-trace",
		scope:  []string{"internal/controller/"},
		pred:   noType{shape: sliceOf | chanOf, of: "internal/controller.JobEvent"},
		reason: "one trace: a job's encoded trace is the one record of its progress, installs and the message tallies no install implies alike, and rounds, the event stream, the message counts and the status body are views derived from it; a channel or a slice of JobEvents is a second record (a publish log, or a buffer per watcher) coming back",
	},
	{
		name:   "one-encoded-trace",
		scope:  []string{"internal/controller/"},
		pred:   retired{names: []string{"switchMessages", "addMessages()", "installs", "msgs"}, except: []string{"internal/controller.dagShape.installs"}},
		reason: "one trace: a job's progress is one varint-encoded trace; a per-switch switchMessages tally, its addMessages insert, or a Job field holding InstallTimings (installs) or tallies (msgs) is a per-struct record, 64 bytes an install, coming back beside it",
	},
	{
		name:   "undo-in-reconcile",
		scope:  []string{"internal/controller/"},
		pred:   uses{objs: []string{"internal/controller.downClosure"}, at: []string{"internal/controller/recover.go"}},
		reason: "one fault model: every abort and every restart learns what took effect through reconcile (recover.go); a downClosure outside recover.go is an abort site computing its own undo set again",
	},
	{
		name:   "one-state-query",
		scope:  []string{"internal/controller/"},
		pred:   uses{objs: []string{"internal/controller.Engine.querySwitchState"}, at: []string{"internal/controller.Engine.reconcile"}},
		reason: "one fault model: the switches are asked what took effect only by reconcile; a querySwitchState from anywhere else is a second way of asking",
	},
	{
		name:   "one-admission",
		scope:  []string{"internal/controller/"},
		pred:   uses{objs: []string{"internal/controller.Engine.admitLocked"}, at: []string{"internal/controller.Engine.enqueueAll", "internal/controller.Engine.admitJournal"}, n: 2},
		reason: "one admission: a job enters the engine through enqueueAll (a submission) or admitJournal (the journal's jobs, as the engine is built), once each; an admitLocked anywhere else is a second admission path coming back, like the one Recover held until it ran, which let a job submitted before it write to the switches reconcile was about to read",
	},
	{
		name:   "no-port-inference",
		scope:  []string{"internal/planwire/", "internal/controller/"},
		pred:   retired{names: []string{"RulePresent", "shows()"}},
		reason: "one fault model: reconcile checks each plan node's own rule, and its undo's, against the rules the node's switch reports for the flow (holds compares planwire.Rule with planwire.Rule); a presence bit in the state report, or a shows that infers a node's effect from the flow's out port and the path successors, is a second model of what a node does coming back, blind to a two-phase job's tagged rules",
	},
	{
		name:   "no-push-wait",
		pred:   retired{names: []string{"pushErr"}},
		reason: "one fault model: pushErr is the decentralized push failure's wait-it-out path coming back",
	},
	{
		name:   "rollback-always",
		scope:  []string{"internal/controller/"},
		pred:   nilCompare("internal/controller.rollbackSpec"),
		reason: "one job kind: every job carries a rollback spec, so a nil test of one is a job kind without a reverse coming back",
	},
	{
		name:   "recoverable-always",
		scope:  []string{"internal/controller/"},
		pred:   uses{objs: []string{"internal/journal.Admit.Recoverable"}, exceptSetTrue: true},
		reason: "one job kind: every admit record is recoverable; a read of Admit.Recoverable is a job kind without a reverse coming back, and the write a.Recoverable = true is its only use",
	},
	{
		name:   "one-fsync",
		scope:  []string{"internal/journal/"},
		pred:   uses{objs: []string{"os.File.Sync", "internal/journal.dirSync"}, at: []string{"internal/journal.Journal.commit", "internal/journal.Journal.Compact", "internal/journal.dirSync"}},
		reason: "one fsync site: every append's fsync runs in Journal.commit, where concurrent appends share it (group commit), and Compact syncs its snapshot and the directory (dirSync); a file sync anywhere else in the journal is a private fsync coming back",
	},
	{
		name:   "one-record-per-wave",
		scope:  []string{"internal/controller/"},
		pred:   uses{objs: []string{"internal/journal.KindDispatched", "internal/journal.KindConfirmed"}},
		reason: "one record per wave: the engine writes admit, dispatched-batch and terminal records only; a per-node dispatched or confirmed record is the old journal coming back",
	},
	{
		name:   "no-replayed",
		pred:   retired{names: []string{"Replayed()"}},
		reason: "one record per wave: a Replayed func is the record slice a restart used to hold instead of Open's fold",
	},
	{
		name:   "one-varint-reader",
		scope:  []string{"!internal/wirefmt/"},
		pred:   uses{objs: []string{"encoding/binary.Uvarint"}},
		reason: "one canonical codec: internal/wirefmt's Decoder is the one reader of the tree's varints (the journal's frames and records, the plan codec and every planwire payload) and refuses their non-minimal forms; a binary.Uvarint anywhere else reads a second byte form of the same value as the same meaning",
	},
	{
		name:   "no-private-cursor",
		scope:  []string{"internal/", "!internal/wirefmt/"},
		pred:   retired{names: []string{"uvarint()", "take()", "fail()"}},
		reason: "one canonical codec: a uvarint, take or fail declared outside internal/wirefmt is a codec's private sticky-error cursor coming back, the copy that drifts from the others",
	},
	{
		name:   "one-http-client",
		scope:  []string{"internal/client/"},
		pred:   literals{typ: "net/http.Client", n: 1},
		reason: "one HTTP client: the SDK sends every request and opens every watch stream through one *http.Client; a second one is a client per call kind coming back",
	},
	{
		name:   "no-client-timeout",
		scope:  []string{"internal/client/"},
		pred:   uses{objs: []string{"net/http.Client.Timeout"}},
		reason: "one HTTP client: WithTimeout is a context deadline per request attempt; http.Client.Timeout puts every call through a wrapping RoundTripper on net/http's legacy cancel path (a goroutine, a timer and a request copy each)",
	},
	{
		name:   "one-counterexample",
		pred:   retired{names: []string{"PlanCounterexample()"}, except: []string{"internal/verify.PlanCounterexample"}},
		reason: "one decider: internal/verify is the one stage engine and verify.PlanCounterexample the synthesizer's one oracle; a second PlanCounterexample is a second decider coming back",
	},
	{
		name:   "one-sampler",
		scope:  []string{"internal/core/", "internal/verify/", "internal/explore/"},
		pred:   noImport{"math/rand", "math/rand/v2"},
		reason: "one decider: every verdict, trace and counterexample comes from the exact search (core.RoundChecker.Decide), which draws no random numbers; an RNG in internal/core, internal/verify or internal/explore is a sampled verdict or trace coming back",
	},
	{
		name:   "explore-no-goroutine",
		scope:  []string{"internal/explore/"},
		pred:   noGo{},
		reason: "one decider: the explorer is a view over verify's worker pool; a goroutine in internal/explore is a second pool coming back",
	},
	{
		name:   "explore-no-memo",
		scope:  []string{"internal/explore/"},
		pred:   noType{shape: mapOf},
		reason: "one decider: a map in internal/explore is the old transposition table coming back",
	},
	{
		name:   "one-search",
		pred:   retired{names: []string{"CheckStage()", "Walker", "StageVerdict", "grayVisit()", "stageSeed()", "heavyTailBias", "oracleLevels"}},
		reason: "one search: verify.Plan, verify.Traces, the synthesizer's oracle and SparsePlan all read core.RoundChecker.Decide, and a stage past the budget is inexact; a stage enumerator with a sampled fallback, its incremental walker, a per-stage sampler seed or an escalating oracle is the second engine coming back",
	},
	{
		name:   "one-ideal-enumerator",
		pred:   uses{objs: []string{"internal/core.Plan.VisitIdeals"}, at: []string{"internal/core.Plan.IdealStates"}, n: 1},
		reason: "one decider: the ideal DFS is the engine of IdealStates, the reference the tests hold the search to; any other caller of Plan.VisitIdeals is a second enumerator deciding beside the search",
	},
	{
		name:   "seed-unread",
		scope:  []string{"!bench/"},
		pred:   uses{objs: []string{"internal/verify.Options.Seed", "internal/explore.Options.Seed", "internal/synth.Options.Seed"}},
		reason: "one search: verification, exploration and synthesis draw no random numbers, so their Options.Seed fields have no effect; they stay only while bench/ sets them (ROADMAP item 1), and a use anywhere else is a seeded decision coming back",
	},
}

// rule is one design invariant. scope holds slash-separated path
// prefixes relative to the root (a package directory ends in "/"); one
// that starts with "!" excludes; none means the whole tree. The
// type-checked tree leaves test files out; tests adds them, by syntax
// alone, to a retired predicate's names.
type rule struct {
	name   string
	scope  []string
	tests  bool
	pred   predicate
	reason string
}

// covers reports whether file (relative to the root) is in r's scope.
func (r *rule) covers(file string) bool {
	in, included := false, false
	for _, s := range r.scope {
		if ex, ok := strings.CutPrefix(s, "!"); ok {
			if strings.HasPrefix(file, ex) {
				return false
			}
		} else {
			included = true
			in = in || strings.HasPrefix(file, s)
		}
	}
	return in || !included
}

// predicate reports each place in r's scope that breaks it.
type predicate interface {
	check(t *tree, r *rule)
}

// uses: the objects are used only at the sites at; when n is set, used
// there exactly n times. With exceptSetTrue, an assignment x.F = true
// to a field is no use.
type uses struct {
	objs          []string
	at            []string
	n             int
	exceptSetTrue bool
}

// noImport: no file imports any of these packages.
type noImport []string

// noGo: no go statement.
type noGo struct{}

// retired: nothing outside the except sites declares a name, and with
// the rule's tests flag no test file names it. A name qualified by a
// package ("internal/core.Schedule") matches that package's only, and
// one ending in "()" funcs and methods only. A use needs a declaration,
// so an unexempt use shows as one; names whose declaration stays are
// held by a uses row.
type retired struct {
	names  []string
	except []string
}

// exactDecls: the one file of the scope declares exactly these, each
// printed as gofmt does with its doc comment left out.
type exactDecls []string

// shape is a composite type a noType row rejects, built on its type.
type shape int

const (
	mapOf   shape = 1 << iota // a map keyed by the type; any map when of is ""
	sliceOf                   // a slice of the type
	chanOf                    // a channel of the type
)

// noType: no type written or declared in scope has one of the shapes,
// at any depth of a type literal, aliases seen through.
type noType struct {
	shape shape
	of    string
}

// nilCompare: no == nil or != nil on a pointer to the type.
type nilCompare string

// literals: exactly n composite literals of the type.
type literals struct {
	typ string
	n   int
}

// tree is what the rules see of the checked tree.
type tree struct {
	fset  *token.FileSet
	files []*srcFile                // checked files, sorted by path
	tests []*srcFile                // _test.go files, parsed on demand
	dirs  map[*types.Package]string // tree package -> its directory
	byDir map[string]*types.Package // and back
	all   map[string]*types.Package // every package the tree loads, by path
	out   map[*rule][]finding
}

// srcFile is one Go file of the tree.
type srcFile struct {
	path  string // relative to the root, slash-separated
	dir   string // its package's directory
	file  string // its name on disk, for a test file parsed on demand
	syn   *ast.File
	info  *types.Info // nil for a test file
	ids   []ident     // every identifier that defines or uses an object
	spans []span      // its declarations, outermost first
}

// ident is one identifier of a checked file and the object it defines
// (def) or uses.
type ident struct {
	id  *ast.Ident
	obj types.Object
	def bool
}

// span is one declaration of a file under its site key.
type span struct {
	key      string
	pos, end token.Pos
}

// finding is one line of the report: a place and what is wrong there,
// under the rule it breaks (nil for the dead-API check).
type finding struct {
	pos  token.Position
	rule *rule
	msg  string
}

func (f finding) String() string {
	at := f.pos.Filename
	if f.pos.Line > 0 {
		at = fmt.Sprintf("%s:%d", at, f.pos.Line)
	}
	if f.rule != nil {
		return at + ": " + f.rule.name + ": " + f.msg
	}
	return at + ": " + f.msg
}

// checkRules runs every rule on the checked tree and returns the
// findings, rule by rule in table order, each rule's by position.
func (l *loader) checkRules() []finding {
	t := &tree{fset: l.fset, dirs: map[*types.Package]string{}, byDir: map[string]*types.Package{}, all: map[string]*types.Package{}, out: map[*rule][]finding{}}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if t.all[p.Path()] != nil {
			return
		}
		t.all[p.Path()] = p
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		t.dirs[p.types], t.byDir[p.dir] = p.dir, p.types
		walk(p.types)
		for i, syn := range p.syn {
			t.files = append(t.files, t.index(p, p.files[i], syn))
		}
		for _, name := range p.tests {
			t.tests = append(t.tests, &srcFile{path: relPath(p.dir, name), dir: p.dir, file: name})
		}
	}
	// A uses row counts in file order.
	sort.Slice(t.files, func(i, j int) bool { return t.files[i].path < t.files[j].path })

	var out []finding
	for i := range rules {
		r := &rules[i]
		r.pred.check(t, r)
		fs := t.out[r]
		sort.SliceStable(fs, func(i, j int) bool {
			a, b := fs[i].pos, fs[j].pos
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			return a.Offset < b.Offset
		})
		// One finding per line: a declaration and its written type
		// break a rule once.
		for k, f := range fs {
			if k == 0 || f.pos.Filename != fs[k-1].pos.Filename || f.pos.Line != fs[k-1].pos.Line {
				out = append(out, f)
			}
		}
	}
	return out
}

// index builds a checked file's identifier list.
func (t *tree) index(p *pkg, name string, syn *ast.File) *srcFile {
	f := &srcFile{path: relPath(p.dir, name), dir: p.dir, syn: syn, info: p.info}
	ast.Inspect(syn, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.info.Defs[id]; obj != nil {
				f.ids = append(f.ids, ident{id, obj, true})
			} else if obj := p.info.Uses[id]; obj != nil {
				f.ids = append(f.ids, ident{id, origin(obj), false})
			}
		}
		return true
	})
	return f
}

// relPath is a file's path relative to the root, given its package's
// directory.
func relPath(dir, name string) string {
	return path.Join(dir, filepath.Base(name))
}

// report records one finding of r at pos in f.
func (t *tree) report(r *rule, f *srcFile, pos token.Pos, format string, args ...any) {
	p := t.fset.Position(pos)
	p.Filename = f.path
	t.out[r] = append(t.out[r], finding{pos: p, rule: r, msg: fmt.Sprintf(format, args...)})
}

// reportAt records a finding of r that has no line, at a path.
func (t *tree) reportAt(r *rule, at string, format string, args ...any) {
	t.out[r] = append(t.out[r], finding{pos: token.Position{Filename: at}, rule: r, msg: fmt.Sprintf(format, args...)})
}

// in returns the checked files of r's scope.
func (t *tree) in(r *rule) []*srcFile {
	var out []*srcFile
	for _, f := range t.files {
		if r.covers(f.path) {
			out = append(out, f)
		}
	}
	return out
}

// lookup resolves an object name of the rules table, nil when it names
// nothing the tree loads.
func (t *tree) lookup(name string) types.Object {
	cut := strings.LastIndex(name, "/") + 1
	dot := strings.Index(name[cut:], ".")
	if dot < 0 {
		return nil
	}
	pkgName, members := name[:cut+dot], strings.Split(name[cut+dot+1:], ".")
	p := t.byDir[pkgName]
	if p == nil {
		p = t.all[pkgName]
	}
	if p == nil {
		return nil
	}
	obj := p.Scope().Lookup(members[0])
	if obj == nil || len(members) > 2 {
		return nil
	}
	if len(members) == 2 {
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, p, members[1])
	}
	return obj
}

// lookupType is lookup for a rule naming a type.
func (t *tree) lookupType(r *rule, name string) types.Type {
	if tn, ok := t.lookup(name).(*types.TypeName); ok {
		return tn.Type()
	}
	t.reportAt(r, name, "stale rule: names no type the tree loads")
	return nil
}

// spansOf returns f's declarations, each under its site key: funcs,
// methods (Type.Method), package-level vars, types and the fields of
// struct types (Type.Field).
func (f *srcFile) spansOf() []span {
	if f.spans != nil {
		return f.spans
	}
	add := func(key string, n ast.Node) {
		f.spans = append(f.spans, span{f.dir + "." + key, n.Pos(), n.End()})
	}
	for _, d := range f.syn.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			key := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				key = recvName(d.Recv.List[0].Type) + "." + key
			}
			add(key, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n.Name, s)
					}
				case *ast.TypeSpec:
					add(s.Name.Name, s)
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								add(s.Name.Name+"."+n.Name, fld)
							}
						}
					}
				}
			}
		}
	}
	return f.spans
}

// recvName is the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// at reports whether pos in f lies at one of the sites: the file
// itself, or a declaration of it.
func (f *srcFile) at(pos token.Pos, sites []string) bool {
	for _, s := range sites {
		if s == f.path {
			return true
		}
		for _, sp := range f.spansOf() {
			if sp.key == s && sp.pos <= pos && pos < sp.end {
				return true
			}
		}
	}
	return false
}

func (p uses) check(t *tree, r *rule) {
	want := map[types.Object]string{}
	for _, name := range p.objs {
		if obj := t.lookup(name); obj != nil {
			want[obj] = name
		} else {
			t.reportAt(r, name, "stale rule: names no object the tree loads")
		}
	}
	count := map[string]int{}
	for _, f := range t.in(r) {
		setTrue := map[*ast.Ident]bool{}
		if p.exceptSetTrue {
			ast.Inspect(f.syn, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 {
					return true
				}
				if sel, ok := as.Lhs[0].(*ast.SelectorExpr); ok {
					if v := f.info.Types[as.Rhs[0]].Value; v != nil && v.Kind() == constant.Bool && constant.BoolVal(v) {
						setTrue[sel.Sel] = true
					}
				}
				return true
			})
		}
		for _, id := range f.ids {
			name, ok := want[id.obj]
			if !ok || id.def || setTrue[id.id] {
				continue
			}
			if !f.at(id.id.Pos(), p.at) {
				if len(p.at) == 0 {
					t.report(r, f, id.id.Pos(), "uses %s", name)
				} else {
					t.report(r, f, id.id.Pos(), "uses %s outside %s", name, strings.Join(p.at, ", "))
				}
				continue
			}
			if count[name]++; p.n > 0 && count[name] > p.n {
				t.report(r, f, id.id.Pos(), "use %d of %s at %s, which holds exactly %d", count[name], name, strings.Join(p.at, ", "), p.n)
			}
		}
	}
	for _, name := range want {
		if p.n > 0 && count[name] < p.n {
			t.reportAt(r, strings.Join(p.at, ", "), "%d uses of %s, want exactly %d", count[name], name, p.n)
		}
	}
}

func (p noImport) check(t *tree, r *rule) {
	for _, f := range t.in(r) {
		for _, imp := range f.syn.Imports {
			for _, path := range p {
				if imp.Path.Value == `"`+path+`"` {
					t.report(r, f, imp.Pos(), "imports %s", path)
				}
			}
		}
	}
}

func (noGo) check(t *tree, r *rule) {
	for _, f := range t.in(r) {
		ast.Inspect(f.syn, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.report(r, f, g.Pos(), "go statement")
			}
			return true
		})
	}
}

func (p retired) check(t *tree, r *rule) {
	type name struct {
		dir, name string
		fn        bool
	}
	var names []name
	for _, s := range p.names {
		n := name{}
		s, n.fn = strings.CutSuffix(s, "()")
		if i := strings.LastIndex(s, "."); i >= 0 {
			n.dir, s = s[:i], s[i+1:]
		}
		n.name = s
		names = append(names, n)
	}
	for _, f := range t.in(r) {
		for _, id := range f.ids {
			for _, n := range names {
				_, isFn := id.obj.(*types.Func)
				if id.def && id.obj.Name() == n.name && (!n.fn || isFn) &&
					(n.dir == "" || id.obj.Pkg() != nil && t.dirs[id.obj.Pkg()] == n.dir) && !f.at(id.id.Pos(), p.except) {
					t.report(r, f, id.id.Pos(), "declares %s", id.obj.Name())
				}
			}
		}
	}
	if !r.tests {
		return
	}
	for _, f := range t.tests {
		if !r.covers(f.path) {
			continue
		}
		// Most test files name none of the names: read before parsing.
		src, err := os.ReadFile(f.file)
		if err == nil && !slices.ContainsFunc(names, func(n name) bool { return bytes.Contains(src, []byte(n.name)) }) {
			continue
		}
		if f.syn, err = parser.ParseFile(t.fset, f.file, src, parser.SkipObjectResolution); err != nil {
			t.reportAt(r, f.path, "unreadable: %v", err)
			continue
		}
		// A qualified name is named by a selector on an import of its
		// package, or bare in that package's own tests.
		local := map[string]string{}
		for _, imp := range f.syn.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			as := path.Base(ip)
			if imp.Name != nil {
				as = imp.Name.Name
			}
			local[as] = ip
		}
		ast.Inspect(f.syn, func(nd ast.Node) bool {
			for _, n := range names {
				switch x := nd.(type) {
				case *ast.SelectorExpr:
					if q, ok := x.X.(*ast.Ident); ok && n.dir != "" && x.Sel.Name == n.name && strings.HasSuffix("/"+local[q.Name], "/"+n.dir) && !f.at(x.Pos(), p.except) {
						t.report(r, f, x.Pos(), "names %s", n.name)
					}
				case *ast.Ident:
					if x.Name == n.name && (n.dir == "" || n.dir == f.dir) && !f.at(x.Pos(), p.except) {
						t.report(r, f, x.Pos(), "names %s", n.name)
					}
				}
			}
			return true
		})
	}
}

func (p exactDecls) check(t *tree, r *rule) {
	files := t.in(r)
	if len(files) != 1 {
		t.reportAt(r, strings.Join(r.scope, ", "), "stale rule: scope holds %d files, want one", len(files))
		return
	}
	f := files[0]
	var got []string
	for _, d := range f.syn.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			c := *d
			c.Doc = nil
			got = append(got, t.print(&c))
		case *ast.GenDecl:
			c := *d
			c.Doc = nil
			got = append(got, t.print(&c))
		}
	}
	if len(got) != len(p) {
		t.reportAt(r, f.path, "%d declarations, want the %d aliases", len(got), len(p))
		return
	}
	for i, d := range got {
		if d != p[i] {
			t.report(r, f, f.syn.Decls[i].Pos(), "declaration %d is %q, want %q", i+1, d, p[i])
		}
	}
}

// print renders a node as gofmt does.
func (t *tree) print(n ast.Node) string {
	var b strings.Builder
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	cfg.Fprint(&b, t.fset, n) //nolint:errcheck // a strings.Builder does not fail
	return b.String()
}

func (p noType) check(t *tree, r *rule) {
	var of types.Type
	if p.of != "" {
		if of = t.lookupType(r, p.of); of == nil {
			return
		}
	}
	for _, f := range t.in(r) {
		qual := func(pk *types.Package) string { return pk.Name() }
		// A declared name's type may be inferred, so it is searched
		// through; a written type literal is checked as it stands, since
		// each literal inside it is a type expression of its own.
		for _, id := range f.ids {
			if id.def && p.has(id.obj.Type(), of, true) {
				t.report(r, f, id.id.Pos(), "declares %s of type %s", id.obj.Name(), types.TypeString(id.obj.Type(), qual))
			}
		}
		ast.Inspect(f.syn, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				if tv, ok := f.info.Types[e]; ok && tv.IsType() && p.has(tv.Type, of, false) {
					t.report(r, f, e.Pos(), "type %s", types.TypeString(tv.Type, qual))
				}
			}
			return true
		})
	}
}

// has reports whether tt has one of p's shapes of of, or, when deep,
// whether a type literal in it does. A named type is a type of its own
// and is not opened.
func (p noType) has(tt types.Type, of types.Type, deep bool) bool {
	is := func(s shape, elem types.Type) bool {
		return p.shape&s != 0 && (of == nil || types.Identical(elem, of))
	}
	in := func(ts ...types.Type) bool {
		for _, e := range ts {
			if deep && p.has(e, of, true) {
				return true
			}
		}
		return false
	}
	switch u := types.Unalias(tt).(type) {
	case *types.Map:
		return is(mapOf, u.Key()) || in(u.Key(), u.Elem())
	case *types.Slice:
		return is(sliceOf, u.Elem()) || in(u.Elem())
	case *types.Chan:
		return is(chanOf, u.Elem()) || in(u.Elem())
	case *types.Array:
		return in(u.Elem())
	case *types.Pointer:
		return in(u.Elem())
	case *types.Signature:
		return in(u.Params(), u.Results())
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if in(u.At(i).Type()) {
				return true
			}
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if in(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

func (p nilCompare) check(t *tree, r *rule) {
	typ := t.lookupType(r, string(p))
	if typ == nil {
		return
	}
	ptr := types.NewPointer(typ)
	for _, f := range t.in(r) {
		ast.Inspect(f.syn, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || b.Op != token.EQL && b.Op != token.NEQ {
				return true
			}
			x, y := f.info.Types[b.X], f.info.Types[b.Y]
			if x.IsNil() && types.Identical(y.Type, ptr) || y.IsNil() && types.Identical(x.Type, ptr) {
				t.report(r, f, b.Pos(), "compares a *%s with nil", p)
			}
			return true
		})
	}
}

func (p literals) check(t *tree, r *rule) {
	typ := t.lookupType(r, p.typ)
	if typ == nil {
		return
	}
	n := 0
	for _, f := range t.in(r) {
		ast.Inspect(f.syn, func(nd ast.Node) bool {
			if lit, ok := nd.(*ast.CompositeLit); ok && types.Identical(f.info.Types[lit].Type, typ) {
				if n++; n > p.n {
					t.report(r, f, lit.Pos(), "literal %d of %s, want exactly %d", n, p.typ, p.n)
				}
			}
			return true
		})
	}
	if n < p.n {
		t.reportAt(r, strings.Join(r.scope, ", "), "%d literals of %s, want exactly %d", n, p.typ, p.n)
	}
}
