"""eep_lint: static enforcement of the repo's determinism/privacy contracts.

The engine's headline properties — released tables bit-identical for every
thread count, budget charged before any noise is drawn, raw counts never
egressing un-noised — are documented in docs/ARCHITECTURE.md and enforced
here as named, individually suppressible rules checked at lint time.

Two engines share one lex per translation unit:

* Intraprocedural (intra.py): comment/string stripping, brace matching,
  worker-lambda region extraction, paired-header declaration scans, the
  module DAG from src/*/CMakeLists.txt.
* Interprocedural (symbols.py + flow.py): a repo-wide symbol index and
  call graph recovered lexically and resolved through the module DAG, then
  a taint dataflow pass computing per-function summaries (param/return
  transfer, params reaching sinks) composed to a global fixpoint.

Rules (ids are stable; docs reference them as eep-lint:<id>):

  rng-source                no std::rand / std::random_device / std::mt19937
                            / time-seeded generators outside common/random.*.
                            All randomness flows through the seeded Rng.
  worker-shared-rng         inside worker lambdas (RunWorkers / std::thread
                            pools), a shared Rng may only be
                            used via the const .Substream(k) derivation —
                            never mutated (.NextUint64(), .Uniform(), even
                            .Fork(), which advances the parent stream).
  unordered-iteration       no iteration over std::unordered_{map,set,...}
                            in the library or bench sources: iteration order
                            is implementation-defined and anything it feeds
                            (released tables, grouped counts, bench/JSON
                            output) loses the determinism contract. Lookups
                            (.find/.count/operator[]) are fine.
  release-layering          mechanism Release()/ReleaseBatch() calls are
                            allowed only in modules that link eep_mechanisms
                            per the src/*/CMakeLists.txt DAG (mechanisms,
                            eval, release) — the layers that charge the
                            PrivacyAccountant before drawing noise.
  worker-shared-mutation    inside worker lambdas, no mutation of captured
                            state unless the variable is a std::atomic,
                            declared inside the lambda, or the write pattern
                            is annotated  // eep-lint: disjoint-writes -- why
  worker-float-accumulation no float/double += accumulation into shared
                            state inside worker lambdas (FP addition is not
                            associative; cross-worker merge order would leak
                            into released values) unless the site is a
                            blessed merge kernel:
                            // eep-lint: blessed-merge -- why
  module-layering           a src/<mod> file may #include only from modules
                            in <mod>'s transitive dependency set of the
                            CMake DAG (and <mod> itself).
  raw-count-egress          interprocedural taint: a raw (un-noised) count
                            (GroupedCounts/MarginalQuery values, Dataset
                            columns) reaches an output sink (csv writers,
                            text_table/report emitters, stdout in
                            release/eval/examples) with no mechanisms::
                            Release/ReleaseBatch on the path.
  unaccounted-release       a Release/ReleaseBatch noise draw in an
                            accountant-charging module with no Charge* call
                            on any path into it (checked bottom-up over the
                            call graph), or a Charge* whose Status is
                            discarded (a refusal must stop the release).
  stale-suppression         an // eep-lint: annotation that no longer
                            suppresses any finding — keeps the written
                            justifications honest as the code evolves.

Suppression syntax (in-code, justification after `--` is REQUIRED):

  // eep-lint: disjoint-writes -- each worker writes rows[begin, end)
  // eep-lint: order-insensitive -- result is re-sorted before use
  // eep-lint: blessed-merge -- serial merge order fixed by trial index
  // eep-lint: declassify -- aggregate |released-true| error statistic
  // eep-lint: custodian-only -- writes the confidential extract on purpose
  // eep-lint: measurement-harness -- eval measures mechanisms, no ledger
  // eep-lint: suppress(<rule-id>) -- justification

An annotation suppresses findings on its own line, the next line, or —
when placed on the opening line of a worker lambda — the whole region.
`declassify` is a line-scoped taint barrier inside the flow pass. A
suppression without a justification is itself reported.

Usage:
  tools/eep_lint [--root DIR] [-p BUILD_DIR] [--rules id,id] [-v]
                 [--fast | --flow] [--timing] [--json=PATH]
                 [--callgraph-dot[=PATH]]
  tools/eep_lint --list-rules
  tools/eep_lint --fixtures tests/lint_fixtures

Exit status: 0 clean, 1 unsuppressed findings (or fixture expectations
violated), 2 usage/environment error.
"""
