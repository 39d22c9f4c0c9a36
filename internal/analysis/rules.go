package analysis

import "strings"

// DefaultRules is the eight-rule set cmd/nimbus-lint runs over the tree,
// with each rule scoped to the packages whose invariants it protects:
//
//   - no-naked-rand everywhere except internal/rng, whose seeded sources
//     are the only sanctioned randomness (Lemma 3's calibrated mechanisms
//     must be replayable from one seed);
//   - no-float-eq in the curve/grid packages, where Monte-Carlo jitter
//     makes bitwise float equality meaningless (Theorems 4–7 reason about
//     monotone curves up to epsilon);
//   - no-wallclock in the deterministic solver and experiment packages, so
//     Figure 6–14 replays are reproducible under an injected clock;
//   - no-dropped-error everywhere;
//   - telemetry-label-literal everywhere internal/telemetry is used;
//   - the two interprocedural group rules: noise-taint tracks raw
//     optimal models (market.Offering.Optimal, //lint:source fields,
//     ml Fit outputs) to release sinks across the whole group, and
//     lock-contract checks the lock contracts (`guarded by` fields,
//     //lint:holds, //lint:lockorder) at every call site in any package,
//     plus the release of every acquired lock on every exit; both stay
//     silent where type information is missing;
//   - resource-lifecycle everywhere, annotation-gated like lock-contract:
//     //lint:owns results must be closed, returned or transferred on
//     every exit path.
func DefaultRules(modulePath string) []Rule {
	internal := func(pkg string) string { return modulePath + "/internal/" + pkg }
	deterministic := []string{
		internal("pricing"),
		internal("isotone"),
		internal("opt"),
		internal("lp"),
		internal("experiments"),
	}
	return []Rule{
		NoNakedRand{Allow: []string{internal("rng")}},
		FloatEq{Scope: []string{
			internal("pricing"),
			internal("isotone"),
			internal("opt"),
			internal("lp"),
		}},
		WallClock{Scope: deterministic},
		DroppedError{},
		TelemetryLabel{TelemetryPath: internal("telemetry")},
		NoiseTaint{
			SourceFields: []FieldRef{
				{Pkg: internal("market"), Type: "Offering", Field: "Optimal"},
			},
			SourceFuncs:   []FuncRef{{Pkg: internal("ml"), Name: "Fit"}},
			Sanitizers:    []FuncRef{{Pkg: internal("noise"), Name: "Perturb"}},
			SanitizerName: "noise.Mechanism.Perturb",
			// The journal codec writes binary records, not JSON, so it
			// is named here rather than caught by the encoding/json
			// builtins.
			Sinks: []FuncRef{{Pkg: internal("market"), Name: "MarshalSale"}},
			Scope: []string{
				internal("market"),
				internal("server"),
				internal("journal"),
				internal("pricing"),
				internal("ml"),
				internal("noise"),
				modulePath + "/cmd",
			},
		},
		LockContract{},
		ResourceLifecycle{},
	}
}

// matchScope reports whether pkgPath is pkgs[i] or beneath pkgs[i] for some
// i. An empty list matches nothing.
func matchScope(pkgs []string, pkgPath string) bool {
	for _, p := range pkgs {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}
