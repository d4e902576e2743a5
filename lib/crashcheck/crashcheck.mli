(** Deterministic persistency model checker (paper §5.8 validation).

    Random crash sampling ([bin stress], [test_crash.ml]) covers a
    vanishing fraction of the crash-instant space; ordering bugs (a
    forgotten [clwb], a fence on the wrong side of a commit point)
    hide in the instants it never draws.  This checker instead
    {e enumerates} the space exactly:

    - every mutation between two [sfence]s is volatile, so distinct
      crash instants collapse onto persistence points — the fence
      boundaries.  Driving the operation under
      {!Nvmm.Memdev.set_persistence_hook} and cutting execution at
      fence [k] covers every crash instant in [(fence k, fence k+1)];
    - at each point the checker crashes the device in
      {!mode}[ Dirty_lost_all] (no unfenced line survives — the
      deterministic worst case) and in [Dirty_subset] modes (a seeded
      adversarial subset of the unflushed dirty lines persists first,
      modelling cache evictions), then re-attaches, runs recovery and
      validates every oracle against the scenario's ledger.

    Every verdict is replayable: a counterexample names the scenario,
    the crash-point index and the dirty-subset seed, which
    {!check_point} (or [bin/main.exe crashcheck --point N]) replays
    deterministically — with [--trace-out] for an event-trace dump of
    the failing execution. *)

type mode =
  | Dirty_lost_all
      (** every unfenced line is lost — {!Nvmm.Memdev.crash} [`Strict] *)
  | Dirty_subset of int
      (** a seeded adversarial subset of unflushed dirty lines
          persists — [`Adversarial] with a PRNG built from the seed *)

val mode_to_string : mode -> string

(** {2 Scenarios}

    A scenario owns a fresh machine + heap per exploration run:
    [setup] builds and pre-populates it (ending fully drained, so the
    baseline is durable), [op] is the operation sequence whose crash
    space is explored.  [op] updates the {!ledger} as each API call
    {e returns}, giving the oracles a durable lower bound; anything
    the single in-flight call may add or remove is bounded by
    [slack]. *)

type ledger = {
  mutable durable : int;
      (** bytes the completed prefix of [op] has durably live *)
  mutable slack : int;
      (** max bytes the one in-flight call can add or remove *)
}

type env = {
  mach : Machine.t;
  base : int;
  mutable heap : Poseidon.Heap.t;
      (** replaced by the recovered heap after crash + attach *)
  ledger : ledger;
  mutable aux_devs : Nvmm.Memdev.t list;
      (** devices of {e other} machines a multi-machine scenario
          involves (e.g. the replication primary).  Their fences count
          into the same persistence-point space, and {!check_point}
          crashes them at the same instant as [mach]'s device — a
          correlated cluster-wide power loss.  Empty for the
          single-machine scenarios. *)
}

type oracle = {
  oname : string;
  check : env -> (unit, string) result;
      (** runs on the recovered heap; [Error] describes the violation *)
}

type scenario = {
  sname : string;
  setup : unit -> env;
  op : env -> unit;
  extra_oracles : oracle list;
      (** scenario-specific oracles, run after {!standard_oracles} *)
}

(** {2 Oracles} *)

val o_invariants : oracle
(** {!Poseidon.Heap.check_invariants} holds on the recovered heap. *)

val o_fsck : oracle
(** {!Poseidon.Fsck.run} reports a clean heap. *)

val o_quiescent : oracle
(** Recovery left every undo and micro log empty
    ({!Poseidon.Heap.logs_quiescent}). *)

val o_accounting : oracle
(** No leaked or double-owned blocks: every sub-heap's live + free
    bytes exactly tile its data region. *)

val o_durability : oracle
(** Durability/atomicity: recovered live bytes lie within
    [ledger.durable ± ledger.slack] — committed operations (including
    committed transactions) are fully visible, uncommitted
    transactions fully rolled back, with at most one in-flight call of
    ambiguous fate. *)

val standard_oracles : oracle list
(** The five oracles above, in order. *)

(** {2 Checking} *)

type counterexample = {
  cx_scenario : string;
  cx_point : int;  (** crash after fence [cx_point] of [op] *)
  cx_mode : mode;
  cx_oracle : string;
  cx_detail : string;
}

type report = {
  rp_scenario : string;
  fences_total : int;  (** fences in one uninterrupted run of [op] *)
  points_explored : int;
  subsets_tried : int;
  recoveries_verified : int;  (** crash+recover runs with every oracle green *)
  counterexamples : counterexample list;
}

val measure : scenario -> int
(** Dry run: the number of fences [op] executes uninterrupted. *)

val subset_seed : seed:int -> point:int -> int -> int
(** The PRNG seed the checker derives for adversarial subset [s] at
    [point] under base [seed] — exposed so counterexamples replay. *)

val check_point : scenario -> point:int -> mode:mode -> counterexample option
(** Replays a single crash: run [op] to persistence point [point],
    crash in [mode], recover, run the oracles.  [None] = all green.
    The points of a scenario whose [op] executes [n] fences are
    [1 .. n + 1] (the last crashes after [op] completed); any other
    [point] raises [Invalid_argument] naming that range. *)

val run :
  ?max_points:int ->
  ?subsets_per_point:int ->
  ?seed:int ->
  scenario ->
  report
(** Full exploration.  Enumerates points [1 .. measure + 1] (the last
    is a crash after [op] completed); each point is checked in
    [Dirty_lost_all] plus [subsets_per_point] seeded [Dirty_subset]
    modes (default 2).  [max_points > 0] budget-caps the sweep to an
    evenly-strided sample (default [0]: exhaustive).  A negative
    budget raises [Invalid_argument].  Deterministic in [seed].  Obs
    counters under scope ["crashcheck"]: [points_explored],
    [subsets_tried], [recoveries_verified], [counterexamples]. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_report : Format.formatter -> report -> unit

(** {2 Built-in scenarios}

    Operation paths over a deliberately small heap (one CPU, 64 KiB of
    sub-heap data) so exhaustive enumeration stays cheap:

    - ["alloc"], ["free"], ["tx-commit"], ["tx-abort"], ["extend"]:
      singleton allocations (split paths), frees of a pre-populated
      heap (merge/defrag), two committed and one aborted
      multi-allocation transaction, and tiny allocations that force
      sub-heap hash-table extension (§5.2 growth path);
    - the KV scenarios drive a plan of puts, deletes and cross-shard
      transactions through the {!Service.Kv} intent and 2PC protocols.
      One constructor runs them all: an optional hook per op stages it
      (mvcc-broken's prepare / observe / decide / apply), and an
      optional audit after each completed op reads the live store —
      snapshots for ["kv-snapshot"], the DRAM read cache and snapshots
      for ["kv-rcache-put"] — against the completed-prefix model, a
      stale, torn or phantom read becoming a counterexample of the
      scenario's read oracle.  ["kv-tcache-put"] allocates through a
      {!Tcache} magazine cache and adds a [value-census] oracle: one
      live value-class block per present key;
    - ["kv-replicated-put"] and ["kv-batched-put"] add a second machine
      and the {!Replica} pipeline (sync shipping, or group commit with
      doorbell frames and cumulative acks); the whole cluster loses
      power at every fence of both machines and recovery attaches the
      backup.

    Every KV sweep judges recovery by one prefix rule: the re-attached
    store equals the plan-prefix state over the preload for some length
    [m] in [\[acked, acked + window\]].  The window is 1 (the one
    in-flight op applied whole or not at all — for a transaction,
    all-or-nothing across every key) except in the batched sweep, where
    it is the batch window: a crash mid-batch loses at most the unacked
    window, never an acked op.

    Each seeded bug is the correct scenario with one protocol step
    broken; the checker must flag it, and [scripts/check.sh] fails CI
    when it does not:
    - ["broken"]: a "write data, persist commit flag" protocol that
      forgets the clwb on the data line (its [app-commit] oracle);
    - ["kv-txn-broken"]: the 2PC coordinator skips the decision
      record's flush ({!Service.Kv.txn_break_decision_persist});
    - ["mvcc-broken"]: a staged prepare publishes its versions before
      any decision exists ({!Service.Kv.mvcc_break_early_publish});
    - ["rcache-broken"]: read-cache invalidations are deferred past the
      mutation's reply ({!Service.Kv.rcache_break_late_invalidate});
    - ["kv-batched-broken"]: the plan runner acks a group before its
      covering flush is acked;
    - ["tcache-broken"]: frees recycle with no reclaim lease
      ({!Tcache.break_recycle});
    - ["tcache-hwm-broken"]: a free persists its lease without raising
      the reclaim ledger's high-water mark
      ({!Poseidon.Heap.tc_break_hwm}). *)

type kind = Correct | Seeded_bug

type entry = {
  name : string;  (** the scenario's [sname] and CLI name *)
  kind : kind;
  make : unit -> scenario;  (** a fresh instance per call *)
}

val registry : entry list
(** Every built-in scenario, each seeded bug listed after the correct
    scenario it breaks.  The one place scenario names are spelled. *)

val scenario_by_name : string -> scenario option
(** A fresh instance of the registry entry named [name]. *)

val all_scenarios : unit -> scenario list
(** Fresh instances of every [Correct] entry, in registry order. *)

val scn_kv_batched : ?window:int -> string -> scenario
(** The correct batched sweep (["kv-batched-put"]) with batch [window]
    (default 4), reported under the given name — for sweeping the
    window. *)
