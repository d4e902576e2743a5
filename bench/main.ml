(** Benchmark harness: regenerates every evaluation artefact of the
    paper (Figures 3, 6, 7, 8, 9) plus the design-choice ablations
    called out in DESIGN.md, and a Bechamel wall-clock suite for the
    allocator hot paths.

    By default every figure runs at a scaled-down size so the whole
    suite finishes in a few minutes; [--full] approaches paper-scale
    parameters.  Throughput numbers are simulated-machine throughput
    (see lib/machine); the shapes, orderings and crossovers are the
    reproduction targets, not the absolute values. *)

module Tablefmt = Repro_util.Tablefmt

let thread_counts = ref [ 1; 2; 4; 8; 16; 32; 48; 64 ]
let full = ref false
let figures = ref []
let ablations = ref []
let run_bechamel = ref false
let suite = ref ""
let json_out = ref ""

(* Every measured cell also lands in the metrics registry, so each run
   ends with a machine-readable BENCH_*.json snapshot next to the
   human-readable tables. *)
let record ~title ~name ~threads ~unit v =
  Obs.Metrics.set_gauge ~scope:("bench/" ^ title)
    (Printf.sprintf "%s %s @%dt" name unit threads)
    v;
  v

let scale n = if !full then n * 10 else n

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ---------- Figure 3 / safety matrix ---------- *)

let figure3 () =
  note "";
  note "### Figure 3 / safety: heap-metadata corruption attacks";
  note "(paper 3.2: a heap overflow corrupts PMDK's in-place metadata;";
  note " Poseidon's segregated, MPK-protected metadata is unaffected.";
  note " 'PMDK+canary' is the paper's 8 mitigation: it converts silent";
  note " corruption into a detected leak.)";
  List.iter
    (fun row ->
      Printf.printf "  %s\n" row.Workloads.Safety.attack;
      List.iter
        (fun (name, outcome) ->
          Printf.printf "    %-12s %s\n" name
            (Workloads.Safety.outcome_to_string outcome))
        row.Workloads.Safety.results)
    (Workloads.Safety.matrix ());
  print_newline ()

(* ---------- generic sweep over allocators and thread counts ---------- *)

let factories () = Workloads.Factories.all ()

let sweep ~title ~unit run =
  let facs = factories () in
  let table =
    Tablefmt.create ~title
      ~columns:
        ("threads"
         :: List.map
              (fun f -> f.Workloads.Factories.name ^ " " ^ unit)
              facs)
  in
  List.iter
    (fun threads ->
      let row =
        List.map
          (fun f ->
            record ~title ~name:f.Workloads.Factories.name ~threads ~unit
              (run ~factory:f ~threads))
          facs
      in
      Tablefmt.add_float_row table (string_of_int threads) row)
    !thread_counts;
  Tablefmt.print table

(* ---------- Figure 6: microbenchmark ---------- *)

let figure6 () =
  note "";
  note "### Figure 6: pairs of 100 mallocs + 100 frees, random order";
  note "(expect: Poseidon scales ~linearly; PMDK saturates past ~16-32";
  note " threads; Makalu collapses for sizes > 400 B)";
  let sizes = [ 256; 1024; 4096; 128 * 1024; 256 * 1024; 512 * 1024 ] in
  List.iter
    (fun size ->
      let per_thread = if size <= 4096 then scale 400 else scale 200 in
      sweep
        ~title:(Printf.sprintf "Fig 6 - %d B allocations" size)
        ~unit:"Mops/s"
        (fun ~factory ~threads ->
          Workloads.Microbench.run ~factory ~size ~threads
            ~total_ops:(per_thread * threads) ()))
    sizes

(* ---------- Figure 7: Larson ---------- *)

let figure7 () =
  note "";
  note "### Figure 7: Larson server benchmark (cross-thread frees)";
  note "(expect: Poseidon > PMDK > Makalu, up to ~4x at high threads)";
  let duration_s = if !full then 0.02 else 0.004 in
  sweep ~title:"Fig 7 - Larson" ~unit:"ops/s" (fun ~factory ~threads ->
      Workloads.Larson.run ~factory ~threads ~duration_s ())

(* ---------- Figure 8: high-performance applications ---------- *)

let figure8 () =
  note "";
  note "### Figure 8: Ackermann / Kruskal / N-Queens";
  note "(expect: Poseidon >> Makalu on Ackermann's large allocations;";
  note " Makalu beats PMDK on N-Queens thanks to NUMA-local lazy mapping)";
  sweep ~title:"Fig 8 - Ackermann (large alloc + memoised compute)"
    ~unit:"Mops/s"
    (fun ~factory ~threads ->
      Workloads.Ackermann.run ~factory ~threads
        ~iterations:(scale 16 * threads) ());
  sweep ~title:"Fig 8 - Kruskal (3 x 512 B + MST of order 5)" ~unit:"Mops/s"
    (fun ~factory ~threads ->
      Workloads.Kruskal.run ~factory ~threads
        ~iterations:(scale 100 * threads) ());
  sweep ~title:"Fig 8 - N-Queens (one 32 B alloc per puzzle)" ~unit:"Mops/s"
    (fun ~factory ~threads ->
      Workloads.Nqueens.run ~factory ~threads
        ~iterations:(scale 100 * threads) ())

(* ---------- Figure 9: YCSB on the persistent B+-tree ---------- *)

let figure9 () =
  note "";
  note "### Figure 9: YCSB Load / Workload A over FAST-FAIR-style B+-tree";
  note "(expect: Poseidon ~ PMDK - the index dominates; both flatten past";
  note " ~32 threads on NVMM bandwidth; Makalu degrades past ~16)";
  let records = scale 10000 and operations = scale 10000 in
  let facs = factories () in
  let columns =
    "threads"
    :: List.map (fun f -> f.Workloads.Factories.name ^ " Mops/s") facs
  in
  let load_tbl = Tablefmt.create ~title:"Fig 9 - YCSB Load" ~columns in
  let a_tbl = Tablefmt.create ~title:"Fig 9 - YCSB Workload A" ~columns in
  List.iter
    (fun threads ->
      let results =
        List.map
          (fun factory ->
            Workloads.Ycsb.run ~factory ~threads ~records ~operations ())
          facs
      in
      List.iter2
        (fun (f : Workloads.Factories.factory) r ->
          ignore
            (record ~title:"Fig 9 - YCSB Load" ~name:f.name ~threads
               ~unit:"Mops/s" r.Workloads.Ycsb.load_mops);
          ignore
            (record ~title:"Fig 9 - YCSB Workload A" ~name:f.name ~threads
               ~unit:"Mops/s" r.Workloads.Ycsb.a_mops))
        facs results;
      Tablefmt.add_float_row load_tbl (string_of_int threads)
        (List.map (fun r -> r.Workloads.Ycsb.load_mops) results);
      Tablefmt.add_float_row a_tbl (string_of_int threads)
        (List.map (fun r -> r.Workloads.Ycsb.a_mops) results))
    !thread_counts;
  Tablefmt.print load_tbl;
  Tablefmt.print a_tbl

(* ---------- extensions beyond the paper ---------- *)

(* YCSB workloads B (95 % read) and C (100 % read) in addition to the
   paper's Load/A pair: the allocator matters less as the read share
   grows, so the three allocators should converge from A to C. *)
let extension_ycsb_abc () =
  note "";
  note "### Extension: YCSB A/B/C read-ratio sweep";
  note "(the allocator's influence shrinks as reads dominate)";
  let records = scale 3000 and operations = scale 3000 in
  let facs = factories () in
  let table =
    Tablefmt.create ~title:"YCSB A/B/C at 16 threads (Mops/s)"
      ~columns:[ "workload"; "Poseidon"; "PMDK"; "Makalu" ]
  in
  let results =
    List.map
      (fun factory ->
        Workloads.Ycsb.run_abc ~factory ~threads:16 ~records ~operations ())
      facs
  in
  let row name f = Tablefmt.add_float_row table name (List.map f results) in
  row "Load" (fun r -> r.Workloads.Ycsb.l);
  row "A (50% read)" (fun r -> r.Workloads.Ycsb.a);
  row "B (95% read)" (fun r -> r.Workloads.Ycsb.b);
  row "C (100% read)" (fun r -> r.Workloads.Ycsb.c);
  Tablefmt.print table

(* identical recorded trace replayed on each allocator: the cleanest
   per-operation cost comparison *)
let extension_trace_replay () =
  note "";
  note "### Extension: identical trace replayed on each allocator";
  let table =
    Tablefmt.create ~title:"Recorded trace replay (single thread)"
      ~columns:[ "trace"; "Poseidon ms"; "PMDK ms"; "Makalu ms" ]
  in
  let run_trace name trace =
    let times =
      List.map
        (fun (factory : Workloads.Factories.factory) ->
          let mach, inst = factory.Workloads.Factories.make () in
          let r = Workloads.Trace.replay_timed ~mach inst trace in
          r.Workloads.Trace.simulated_seconds *. 1e3)
        (factories ())
    in
    Tablefmt.add_float_row table name times
  in
  run_trace "small (16-256 B)"
    (Workloads.Trace.random ~seed:1 ~min_size:16 ~max_size:256
       ~events:(scale 2000) ());
  run_trace "mixed (16-4096 B)"
    (Workloads.Trace.random ~seed:2 ~min_size:16 ~max_size:4096
       ~events:(scale 2000) ());
  run_trace "large (64-512 KiB)"
    (Workloads.Trace.random ~seed:3 ~min_size:(64 * 1024)
       ~max_size:(512 * 1024) ~events:(scale 500) ());
  Tablefmt.print table

(* ---------- ablations ---------- *)

(* A2/A3: Poseidon with a single sub-heap shared by all CPUs, and with
   MPK protection off, against stock Poseidon. *)
let ablation_subheap_mpk () =
  note "";
  note "### Ablation - Poseidon design choices (256 B microbenchmark)";
  note "(per-CPU sub-heaps carry the scalability; the MPK toggle is";
  note " nearly free, as 4.3 claims)";
  let single =
    { Workloads.Factories.name = "1 sub-heap";
      make =
        (fun ?cfg () ->
          let mach = Machine.create ?cfg () in
          let heap =
            Poseidon.Heap.create mach ~base:Workloads.Factories.heap_base
              ~size:(1 lsl 38) ~heap_id:1 ~sub_data_size:(16 * 1024 * 1024)
              ~single_subheap:true ()
          in
          (mach, Poseidon.instance heap)) }
  in
  let variants =
    [ Workloads.Factories.poseidon ();
      single;
      { (Workloads.Factories.poseidon ~protected:false ()) with name = "no MPK" } ]
  in
  let table =
    Tablefmt.create ~title:"Ablation - per-CPU sub-heaps and MPK"
      ~columns:
        ("threads"
         :: List.map
              (fun v -> v.Workloads.Factories.name ^ " Mops/s")
              variants)
  in
  List.iter
    (fun threads ->
      let row =
        List.map
          (fun factory ->
            Workloads.Microbench.run ~factory ~size:256 ~threads
              ~total_ops:(scale 400 * threads) ())
          variants
      in
      Tablefmt.add_float_row table (string_of_int threads) row)
    !thread_counts;
  Tablefmt.print table

(* A1: hash-table metadata index vs heap occupancy - allocation cost
   must stay flat as the number of live blocks grows (4.4). *)
let ablation_index () =
  note "";
  note "### Ablation - constant-time metadata index (4.4)";
  note "(alloc+free latency vs live blocks; the multi-level hash table";
  note " keeps it flat regardless of pool occupancy)";
  let mach = Machine.create () in
  let heap =
    Poseidon.Heap.create mach ~base:Workloads.Factories.heap_base
      ~size:(1 lsl 38) ~heap_id:1 ~sub_data_size:(256 * 1024 * 1024) ()
  in
  let inst = Poseidon.instance heap in
  let table =
    Tablefmt.create ~title:"Ablation - alloc latency vs occupancy"
      ~columns:[ "live blocks"; "ns/op" ]
  in
  let live = ref 0 in
  let steps = if !full then 7 else 5 in
  for step = 1 to steps do
    let target = 2000 * (1 lsl step) in
    let _ =
      Machine.parallel mach ~threads:1 (fun _ ->
          while !live < target do
            match Alloc_intf.i_alloc inst 64 with
            | Some _ -> incr live
            | None -> failwith "ablation_index: out of memory"
          done)
    in
    let batch = 2000 in
    let secs =
      Machine.parallel mach ~threads:1 (fun _ ->
          for _ = 1 to batch do
            match Alloc_intf.i_alloc inst 64 with
            | Some p -> Alloc_intf.i_free inst p
            | None -> failwith "ablation_index: out of memory"
          done)
    in
    Tablefmt.add_row table (string_of_int target)
      [ Printf.sprintf "%.0f" (secs *. 1e9 /. float_of_int (2 * batch)) ]
  done;
  Tablefmt.print table

(* 8 future work: the paper suggests "a more advanced index scheme"
   for huge capacities.  Compare the production multi-level table
   (driven through the allocator: alloc/free latency vs population,
   see ablation_index) with a standalone extendible-hash engine on
   raw insert+lookup latency as the population grows. *)
let extension_exthash () =
  note "";
  note "### Extension: extendible hashing as the 8 'advanced index scheme'";
  note "(raw insert+lookup latency vs population; O(1) with exactly one";
  note " directory load per lookup, vs the multi-level table's level scans)";
  let table =
    Tablefmt.create ~title:"Extendible hash index"
      ~columns:[ "population"; "insert ns"; "lookup ns"; "directory depth" ]
  in
  let mach = Machine.create () in
  let base = Workloads.Factories.heap_base in
  Machine.add_region mach ~base ~size:(1 lsl 30) ~kind:Nvmm.Memdev.Nvmm
    ~numa:0;
  let h = Poseidon.Exthash.create mach ~base ~size:(1 lsl 30) in
  let next_key = ref 1 in
  List.iter
    (fun target ->
      let _ =
        Machine.parallel mach ~threads:1 (fun _ ->
            while !next_key <= target do
              Poseidon.Exthash.with_op h (fun ctx ->
                  Poseidon.Exthash.insert ctx h !next_key !next_key);
              incr next_key
            done)
      in
      let batch = 2000 in
      let ins_secs =
        Machine.parallel mach ~threads:1 (fun _ ->
            for i = 0 to batch - 1 do
              Poseidon.Exthash.with_op h (fun ctx ->
                  Poseidon.Exthash.insert ctx h (target + i + 1) i)
            done)
      in
      let look_secs =
        Machine.parallel mach ~threads:1 (fun _ ->
            for i = 1 to batch do
              ignore (Poseidon.Exthash.lookup h i)
            done)
      in
      next_key := target + batch + 1;
      Tablefmt.add_row table (string_of_int target)
        [ Printf.sprintf "%.0f" (ins_secs *. 1e9 /. float_of_int batch);
          Printf.sprintf "%.0f" (look_secs *. 1e9 /. float_of_int batch);
          string_of_int (Poseidon.Exthash.depth h) ])
    [ 4_000; 16_000; 64_000; 256_000 ];
  Tablefmt.print table

(* Inter-thread frees (the case the paper's microbenchmark excludes):
   every block is freed by a different thread than allocated it, so
   Poseidon's remote-free sub-heap locking (5.7) gets exercised. *)
let extension_remote_free () =
  note "";
  note "### Extension: producer/consumer microbenchmark (inter-thread frees)";
  note "(every free is remote; 5.7 claims this contention stays rare/cheap)";
  sweep ~title:"Remote-free microbenchmark - 256 B" ~unit:"Mops/s"
    (fun ~factory ~threads ->
      Workloads.Microbench.run_remote_free ~factory ~size:256 ~threads
        ~total_ops:(scale 400 * threads) ())

(* Where the simulated time goes: per-category cost breakdown of one
   microbenchmark configuration per allocator — explains the curves
   (e.g. Poseidon's time is dominated by undo-log flush+fence;
   Makalu's by header persists; PMDK's by rebuild reads). *)
let ablation_costs () =
  note "";
  note "### Ablation - cost breakdown (256 B microbenchmark, 16 threads)";
  let table =
    Tablefmt.create ~title:"Simulated-time share by category (%)"
      ~columns:
        [ "allocator"; "read hit"; "read miss"; "store"; "clwb"; "fence";
          "bandwidth"; "compute"; "wrpkru" ]
  in
  List.iter
    (fun (factory : Workloads.Factories.factory) ->
      let mach, inst = factory.Workloads.Factories.make () in
      Workloads.Factories.warmup mach inst ~threads:16;
      Machine.reset_profile mach;
      let _ =
        Machine.parallel mach ~threads:16 (fun i ->
            let rng = Repro_util.Prng.create i in
            let live = Array.make 100 Alloc_intf.null in
            for _ = 1 to 4 do
              for j = 0 to 99 do
                live.(j) <-
                  Option.value ~default:Alloc_intf.null
                    (Alloc_intf.i_alloc inst 256)
              done;
              for j = 0 to 99 do
                if not (Alloc_intf.is_null live.(j)) then
                  Alloc_intf.i_free inst live.(j)
              done;
              ignore (Repro_util.Prng.int rng 2)
            done)
      in
      let p = Machine.profile mach in
      let total =
        float_of_int
          (p.Machine.p_read_hit + p.Machine.p_read_miss + p.Machine.p_write
         + p.Machine.p_flush + p.Machine.p_fence + p.Machine.p_bandwidth_wait
         + p.Machine.p_compute + p.Machine.p_wrpkru)
      in
      let share v = 100.0 *. float_of_int v /. Float.max 1.0 total in
      Tablefmt.add_float_row table factory.Workloads.Factories.name
        [ share p.Machine.p_read_hit; share p.Machine.p_read_miss;
          share p.Machine.p_write; share p.Machine.p_flush;
          share p.Machine.p_fence; share p.Machine.p_bandwidth_wait;
          share p.Machine.p_compute; share p.Machine.p_wrpkru ])
    (factories ());
  Tablefmt.print table

(* Capacity scaling (2.2, 4.7): allocation latency must stay flat as
   the pool grows — the multi-level hash table and buddy lists are
   O(1) in pool size.  The simulated pool is sparsely backed, so huge
   sizes are cheap to instantiate. *)
let ablation_capacity () =
  note "";
  note "### Ablation - capacity scaling (2.2, 4.7)";
  note "(alloc+free latency vs pool size; expect a flat line)";
  let table =
    Tablefmt.create ~title:"Ablation - latency vs sub-heap capacity"
      ~columns:[ "pool size"; "ns/op" ]
  in
  List.iter
    (fun mib ->
      let mach = Machine.create () in
      let heap =
        Poseidon.Heap.create mach ~base:Workloads.Factories.heap_base
          ~size:(1 lsl 44) ~heap_id:1 ~sub_data_size:(mib * 1024 * 1024) ()
      in
      let inst = Poseidon.instance heap in
      Workloads.Factories.warmup mach inst ~threads:1;
      (* spread some live allocations across the pool first *)
      let _ =
        Machine.parallel mach ~threads:1 (fun _ ->
            for _ = 1 to 2000 do
              ignore (Alloc_intf.i_alloc inst 256)
            done)
      in
      let batch = 2000 in
      let secs =
        Machine.parallel mach ~threads:1 (fun _ ->
            for _ = 1 to batch do
              match Alloc_intf.i_alloc inst 256 with
              | Some p -> Alloc_intf.i_free inst p
              | None -> failwith "capacity ablation: oom"
            done)
      in
      Tablefmt.add_row table
        (Printf.sprintf "%d MiB" mib)
        [ Printf.sprintf "%.0f" (secs *. 1e9 /. float_of_int (2 * batch)) ])
    [ 64; 256; 1024; 4096; 16384 ];
  Tablefmt.print table

(* ---------- Bechamel wall-clock hot-path suite ---------- *)

let bechamel_suite () =
  note "";
  note "### Bechamel: real-time cost of simulator hot paths";
  let open Bechamel in
  let mach = Machine.create () in
  let heap =
    Poseidon.Heap.create mach ~base:Workloads.Factories.heap_base
      ~size:(1 lsl 38) ~heap_id:1 ()
  in
  let pmdk_mach = Machine.create () in
  let pmdk =
    Pmdk_sim.Heap.create pmdk_mach ~base:Workloads.Factories.heap_base
      ~size:(1 lsl 34) ~heap_id:2 ()
  in
  let mak_mach = Machine.create () in
  let mak =
    Makalu_sim.Heap.create mak_mach ~base:Workloads.Factories.heap_base
      ~size:(1 lsl 34) ~heap_id:3
  in
  let test_poseidon =
    Test.make ~name:"poseidon-alloc-free-256B"
      (Staged.stage (fun () ->
           match Poseidon.Heap.alloc heap 256 with
           | Some p -> Poseidon.Heap.free heap p
           | None -> failwith "oom"))
  in
  let test_pmdk =
    Test.make ~name:"pmdk-alloc-free-256B"
      (Staged.stage (fun () ->
           match Pmdk_sim.Heap.alloc pmdk 256 with
           | Some p -> Pmdk_sim.Heap.free pmdk p
           | None -> failwith "oom"))
  in
  let test_makalu =
    Test.make ~name:"makalu-alloc-free-256B"
      (Staged.stage (fun () ->
           match Makalu_sim.Heap.alloc mak 256 with
           | Some p -> Makalu_sim.Heap.free mak p
           | None -> failwith "oom"))
  in
  let dev = Machine.dev mach in
  let test_memdev =
    Test.make ~name:"memdev-write+persist-64B"
      (Staged.stage (fun () ->
           Nvmm.Memdev.write_u64 dev Workloads.Factories.heap_base 42;
           Nvmm.Memdev.persist dev Workloads.Factories.heap_base 8))
  in
  let tests =
    Test.make_grouped ~name:"hot-paths"
      [ test_poseidon; test_pmdk; test_makalu; test_memdev ]
  in
  let results =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances tests
  in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock results
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-36s %10.0f ns/op\n" name est
      | _ -> Printf.printf "  %-36s (no estimate)\n" name)
    ols;
  print_newline ()

(* ---------- smoke suite ---------- *)

(* A minute-scale sanity run: the 256 B microbenchmark on every
   allocator at 1 and 4 threads.  Small enough for CI, still exercises
   sub-heap creation, locking and persistence on all three designs. *)
let smoke_suite () =
  note "";
  note "### Smoke: 256 B microbenchmark, all allocators";
  List.iter
    (fun threads ->
      List.iter
        (fun (f : Workloads.Factories.factory) ->
          let mops =
            Workloads.Microbench.run ~factory:f ~size:256 ~threads
              ~total_ops:4_000 ()
          in
          ignore
            (record ~title:"smoke micro 256B" ~name:f.name ~threads
               ~unit:"Mops/s" mops);
          note "  %-12s %2d threads  %8.3f Mops/s" f.name threads mops)
        (factories ()))
    [ 1; 4 ];
  print_newline ()

(* ---------- serve suites: poseidon-kv end-to-end ---------- *)

(* Each serve suite is data: the rows it runs, the table columns it
   prints, the per-row extras the shared result encoder has no place
   for, and one gate over the finished rows.  [run_suite] runs the
   rows in order, writes one poseidon-bench/v2 snapshot and exits 1
   after writing it if any gate failed or any row lost an acked
   write. *)

module S = Service.Server
module J = Obs.Json
module A = Obs.Attrib

type row = {
  label : string;
  cfg : S.config;
  r : S.result;
  rr : S.repl_result option;
  att : A.report option; (* latency budget, when the suite arms spans *)
}

type suite = {
  title : string;
  runs : (string * S.config * S.repl_config option) list;
  spans : bool;
  columns : (string * (row -> string)) list;
  extras : row -> (string * J.v) list;
  gate : row list -> (string * J.v) list * string list;
      (* the gate JSON fields and one message per failed gate *)
}

let num i = J.Num (float_of_int i)
let ratio a b = float_of_int a /. float_of_int (max 1 b)
let int_col name f = (name, fun w -> string_of_int (f w))
let rate_col name f = (name, fun w -> Printf.sprintf "%.0f" (f w))
let goodput = rate_col "goodput" (fun w -> w.r.S.goodput)
let shed = int_col "shed" (fun w -> w.r.S.shed)
let p50 = int_col "p50 ns" (fun w -> w.r.S.latency.S.p50)
let p99 = int_col "p99 ns" (fun w -> w.r.S.latency.S.p99)
let read_p50 = int_col "read p50" (fun w -> w.r.S.read_latency.S.p50)
let write_p50 = int_col "write p50" (fun w -> w.r.S.write_latency.S.p50)
let no_extras _ = []
let no_gate _ = ([], [])
let find rows label = List.find (fun w -> w.label = label) rows

let base scope =
  { S.default_config with
    S.shards = 4;
    clients = 32;
    duration = (if !full then 0.05 else 0.02);
    value_size = 128;
    keyspace = 4096;
    queue_capacity = 64;
    scope }

let sync_rcfg = S.default_repl_config
let async_rcfg = { S.default_repl_config with S.repl_mode = Replica.Async }

let run_row ~spans (label, cfg, repl) =
  if spans then begin
    Obs.Span.clear ();
    Obs.Span.start ()
  end;
  let r, rr =
    match repl with
    | None ->
      let factory = Workloads.Factories.poseidon () in
      ( S.run
          ~make:(fun () -> factory.Workloads.Factories.make ())
          ~reattach:(fun mach ->
            Poseidon.instance
              (Poseidon.Heap.attach mach ~base:Workloads.Factories.heap_base
                 ()))
          cfg,
        None )
    | Some rcfg ->
      let rr =
        S.run_replicated
          ~make:(fun mach -> Workloads.Factories.poseidon_on mach)
          cfg rcfg
      in
      (rr.S.base, Some rr)
  in
  let att =
    if spans then begin
      let a = A.analyze () in
      Obs.Span.clear ();
      Some a
    end
    else None
  in
  { label; cfg; r; rr; att }

let rev_json () =
  match Repro_util.Gitrev.short () with
  | Some r -> J.Str r
  | None -> J.Null

let write_doc file doc =
  match open_out file with
  | exception Sys_error msg ->
    Printf.eprintf "bench: cannot write metrics snapshot: %s\n" msg;
    exit 1
  | oc ->
    output_string oc (J.to_string doc);
    output_char oc '\n';
    close_out oc;
    note "metrics snapshot written to %s" file

let run_suite name s file =
  note "";
  let rows = List.map (run_row ~spans:s.spans) s.runs in
  let table =
    Tablefmt.create ~title:s.title ~columns:("run" :: List.map fst s.columns)
  in
  List.iter
    (fun w ->
      Tablefmt.add_row table w.label (List.map (fun (_, f) -> f w) s.columns))
    rows;
  Tablefmt.print table;
  List.iter
    (fun w ->
      if w.r.S.crashed then
        note "  %s: RTO %d ns; ledger %d checked, %d ambiguous, %d mismatch(es)"
          w.label w.r.S.rto_ns w.r.S.ledger.S.checked w.r.S.ledger.S.ambiguous
          w.r.S.ledger.S.mismatches)
    rows;
  let gate, failed = s.gate rows in
  let lost =
    List.filter_map
      (fun w ->
        if S.acked_writes_lost ?repl:w.rr w.r then
          Some (w.label ^ ": LEDGER MISMATCH — acked writes lost")
        else None)
      rows
  in
  let row_json w =
    J.Obj
      ([ ("label", J.Str w.label); ("config", S.config_json w.cfg);
         ("results", S.result_json ?repl:w.rr w.r) ]
      @ s.extras w)
  in
  write_doc file
    (J.Obj
       [ ("schema", J.Str "poseidon-bench/v2"); ("rev", rev_json ());
         ("suite", J.Str name); ("full", J.Bool !full);
         ("runs", J.Arr (List.map row_json rows)); ("gate", J.Obj gate);
         ("metrics", Obs.Metrics.snapshot ()) ]);
  match lost @ failed with
  | [] -> ()
  | msgs ->
    List.iter (Printf.eprintf "bench %s: GATE FAILED — %s\n" name) msgs;
    exit 1

(* Offered-rate sweep over the sharded KV server plus one crash run:
   throughput vs goodput (they diverge once admission control sheds),
   client latency percentiles, and recovery time. *)
let service () =
  let base rate scope =
    { (base ("bench/service/" ^ scope)) with S.rate; queue_capacity = 32 }
  in
  { title = "poseidon-kv: offered-rate sweep (4 shards)";
    runs =
      List.map
        (fun rate ->
          ( Printf.sprintf "rate-%.0f" rate,
            base rate (Printf.sprintf "rate%.0f" rate),
            None ))
        [ 20_000.; 50_000.; 100_000.; 2_000_000. ]
      @ [ ("crash", { (base 50_000. "crash") with S.crash_at = Some 0.5 }, None)
        ];
    spans = false;
    columns =
      [ rate_col "offered req/s" (fun w -> w.cfg.S.rate);
        rate_col "throughput" (fun w -> w.r.S.throughput); goodput; shed; p50;
        p99; int_col "p999 ns" (fun w -> w.r.S.latency.S.p999) ];
    extras = no_extras;
    gate = no_gate }

(* Same traffic harness on a two-machine cluster (lib/cluster +
   lib/replica): sync vs async clean runs expose the sync-mode latency
   tax; then the RTO experiment — one failover run (primary lost at
   50%, backup promoted) against one plain restart run (same store,
   same traffic, same seed, crash + re-attach + intent replay).
   Promotion only seals the shipped log and replays the wire tail, so
   its RTO must come in under the full replay-on-restart path. *)
let replication () =
  let base scope =
    { (base ("bench/replication/" ^ scope)) with
      S.rate = 50_000.;
      read_pct = 20;
      queue_capacity = 32 }
  in
  let crash scope = { (base scope) with S.crash_at = Some 0.5 } in
  { title = "poseidon-kv replicated: sync vs async, promote vs replay";
    runs =
      [ ("sync-clean", base "sync", Some sync_rcfg);
        ("async-clean", base "async", Some async_rcfg);
        ("sync-failover", crash "failover", Some sync_rcfg);
        ("restart-replay", crash "restart", None) ];
    spans = false;
    columns =
      [ rate_col "throughput" (fun w -> w.r.S.throughput); goodput; p50; p99;
        int_col "max lag" (fun w ->
            Option.fold ~none:0 ~some:(fun rr -> rr.S.max_lag) w.rr) ];
    extras = no_extras;
    gate =
      (fun rows ->
        let sync = find rows "sync-clean" and async = find rows "async-clean" in
        note "  sync latency tax: p50 +%d ns, p99 +%d ns over async"
          (sync.r.S.latency.S.p50 - async.r.S.latency.S.p50)
          (sync.r.S.latency.S.p99 - async.r.S.latency.S.p99);
        let failover = find rows "sync-failover" in
        let promote = failover.r.S.rto_ns
        and replay = (find rows "restart-replay").r.S.rto_ns in
        note "  RTO: promote backup %d ns (%d tail record(s) replayed) vs \
              replay-on-restart %d ns"
          promote (Option.get failover.rr).S.tail_replayed replay;
        if promote >= replay then
          note "  WARNING: promote RTO did not beat replay-on-restart RTO";
        ( [ ( "rto",
              J.Obj
                [ ("promote_rto_ns", num promote); ("replay_rto_ns", num replay);
                  ("promote_beats_replay", J.Bool (promote < replay)) ] ) ],
          [] )) }

(* Sync replication pays a wire round trip per mutation: the shard
   handler holds its lock through ship → backup persist → ack, so at
   any real load the RTTs line up behind each other and the queue wait
   dwarfs the store itself.  Group commit amortizes that — one covering
   persist chain, one doorbell frame and ONE ack wait per group of
   consecutive queued mutations — so batched sync should land within
   ~2x of async p50 at the same offered load, where unbatched sync
   drowns.  The sweep runs async and sync at identical rate/seed across
   batch windows; the gate demands some window make the 2x bar. *)
let batch () =
  let run label window rcfg =
    ( label,
      { (base ("bench/batch/" ^ label)) with
        S.rate = 400_000.;
        read_pct = 20;
        batch_window = window },
      Some { rcfg with S.wire_ns = 5_000 } )
  in
  { title = "poseidon-kv sync group commit vs async (4 shards, same load)";
    runs =
      run "async" 1 async_rcfg
      :: List.map
           (fun w -> run (Printf.sprintf "sync-w%d" w) w sync_rcfg)
           [ 1; 4; 8; 16; 32 ];
    spans = false;
    columns =
      [ int_col "window" (fun w -> w.cfg.S.batch_window); goodput; p50; p99;
        shed; int_col "flushes" (fun w -> (Option.get w.rr).S.link_flushes) ];
    extras = (fun w -> [ ("link_flushes", num (Option.get w.rr).S.link_flushes) ]);
    gate =
      (fun rows ->
        let p50 w = w.r.S.latency.S.p50 in
        let async_p50 = p50 (find rows "async") in
        let best =
          match List.filter (fun w -> w.label <> "async") rows with
          | first :: rest ->
            List.fold_left (fun b w -> if p50 w < p50 b then w else b) first rest
          | [] -> assert false
        in
        let best_p50 = p50 best in
        note "  async p50 %d ns; best sync p50 %d ns at window %d (%.2fx async)"
          async_p50 best_p50 best.cfg.S.batch_window (ratio best_p50 async_p50);
        ( [ ("async_p50_ns", num async_p50); ("best_sync_p50_ns", num best_p50);
            ("best_window", num best.cfg.S.batch_window);
            ("ratio", J.Num (ratio best_p50 async_p50));
            ("sync_within_2x_async", J.Bool (best_p50 <= 2 * async_p50)) ],
          if best_p50 > 2 * async_p50 then
            [ Printf.sprintf
                "best sync p50 %d ns > 2x async p50 %d ns at every batch window"
                best_p50 async_p50 ]
          else [] )) }

(* With mvcc off every get/scan queues for its shard lock behind the
   writers; with a version window the read path touches no lock at
   all, so (a) a read-heavy mix should sustain MORE throughput than
   the all-write baseline at the same offered load instead of merely
   tying it, and (b) the snapshot read itself must stay cheap — the
   sweep pairs a 95%-read run at window 0 against window 8 and gates
   snapshot read p50 within 1.25x of the plain read p50.  The
   saturating runs give the throughput comparison headroom; the
   overhead pair runs below saturation so read p50 measures the path,
   not the queue.  A scan-heavy run exercises the multi-shard merged
   scan, and a crash run shows snapshot serving changes nothing about
   recovery. *)
let mvcc () =
  let run ?crash_at label ~rate ~read ~scan ~window =
    ( label,
      { (base ("bench/mvcc/" ^ label)) with
        S.rate;
        read_pct = read;
        scan_pct = scan;
        delete_pct = 0;
        mvcc_window = window;
        crash_at },
      None )
  in
  let hot = 2_000_000. and warm = 50_000. in
  { title = "poseidon-kv MVCC read path (4 shards, window 8 vs plain)";
    runs =
      [ run "write-all" ~rate:hot ~read:0 ~scan:0 ~window:8;
        run "mix-50" ~rate:hot ~read:50 ~scan:0 ~window:8;
        run "read-95" ~rate:hot ~read:95 ~scan:0 ~window:8;
        run "read-95-plain" ~rate:warm ~read:95 ~scan:0 ~window:0;
        run "read-95-snap" ~rate:warm ~read:95 ~scan:0 ~window:8;
        run "scan-heavy" ~rate:warm ~read:30 ~scan:50 ~window:8;
        run "crash" ~crash_at:0.5 ~rate:warm ~read:60 ~scan:10 ~window:8 ];
    spans = false;
    columns =
      [ int_col "window" (fun w -> w.cfg.S.mvcc_window); goodput; shed;
        read_p50; write_p50;
        int_col "scan p50" (fun w -> w.r.S.scan_latency.S.p50) ];
    extras = no_extras;
    gate =
      (fun rows ->
        let plain = (find rows "read-95-plain").r.S.read_latency.S.p50
        and snap = (find rows "read-95-snap").r.S.read_latency.S.p50 in
        let write_all = (find rows "write-all").r
        and read95 = (find rows "read-95").r in
        note "  plain read p50 %d ns; snapshot read p50 %d ns (%.2fx)" plain
          snap (ratio snap plain);
        note "  all-write throughput %.0f; 95%%-read throughput %.0f (shed %d \
              vs %d)"
          write_all.S.throughput read95.S.throughput read95.S.shed
          write_all.S.shed;
        let outscales =
          read95.S.throughput > write_all.S.throughput
          && read95.S.shed <= write_all.S.shed
        in
        ( [ ("plain_read_p50_ns", num plain); ("snapshot_read_p50_ns", num snap);
            ("read_overhead_ratio", J.Num (ratio snap plain));
            ("snapshot_within_1_25x_plain", J.Bool (4 * snap <= 5 * plain));
            ("write_all_throughput", J.Num write_all.S.throughput);
            ("read95_throughput", J.Num read95.S.throughput);
            ("write_all_shed", num write_all.S.shed);
            ("read95_shed", num read95.S.shed);
            ("read_mix_outscales_writes", J.Bool outscales) ],
          (if 4 * snap > 5 * plain then
             [ Printf.sprintf
                 "snapshot read p50 %d ns > 1.25x plain read p50 %d ns" snap
                 plain ]
           else [])
          @
          if outscales then []
          else
            [ Printf.sprintf
                "95%%-read mix (%.0f req/s, shed %d) does not beat the \
                 all-write baseline (%.0f req/s, shed %d)"
                read95.S.throughput read95.S.shed write_all.S.throughput
                write_all.S.shed ] )) }

(* With a read cache armed, a hot zipfian read mix answers most gets
   from a DRAM probe instead of walking the persistent B+-tree and
   digesting the NVMM value block.  The skew sweep (theta 0.6 / 0.9 /
   1.1, 8192 entries/shard, below saturation so hit rate and read p50
   measure the path, not the queue) shows the hit-rate gradient; the
   gate pair reruns the same 98%-read mix at theta 0.99 at a HOT
   offered load, where the cheaper cached service time is the
   difference between a shard queue that drains and one that builds —
   cached read p50 must come in at or below 0.6x the uncached one —
   and a crash run shows the volatile cache changes nothing about
   recovery or the ledger. *)
let rcache () =
  let run ?(rate = 600_000.) ?(duration = if !full then 0.08 else 0.06)
      ?crash_at label ~theta ~entries =
    ( label,
      { (base ("bench/rcache/" ^ label)) with
        S.rate;
        duration;
        value_size = 512;
        (* every key present (absent keys return early and cache
           nothing), and the keyspace is sized so the per-shard working
           set overflows the simulated per-CPU hardware cache (8192
           direct-mapped lines): an uncached read then really pays the
           NVMM tree walk + value digest, which is exactly what the
           digest cache skips.  MVCC stays off — its version chains
           already memoize the digest of every mutated key, so the
           locked read path is where the cache earns its keep (the
           snapshot path's cache interplay is covered by the
           kv-rcache-put crashcheck sweep and the mvcc suite) *)
        keyspace = 32768;
        preload = 32768;
        zipf_theta = theta;
        read_pct = 98;
        scan_pct = 0;
        delete_pct = 0;
        mvcc_window = 0;
        rcache_entries = entries;
        crash_at },
      None )
  in
  let hit_rate w =
    let g name =
      Option.value ~default:0. (Obs.Metrics.get_gauge ~scope:w.cfg.S.scope name)
    in
    let hits = g "rcache_hits" and misses = g "rcache_misses" in
    if hits +. misses <= 0. then 0. else hits /. (hits +. misses)
  in
  let hot = 2_400_000. and hot_dur = 0.24 in
  { title = "poseidon-kv DRAM read cache (4 shards, 98% reads)";
    runs =
      List.map
        (fun theta ->
          run (Printf.sprintf "zipf-%.1f" theta) ~theta ~entries:8192)
        [ 0.6; 0.9; 1.1 ]
      @ [ run "hot-uncached" ~rate:hot ~duration:hot_dur ~theta:0.99 ~entries:0;
          run "hot-cached" ~rate:hot ~duration:hot_dur ~theta:0.99
            ~entries:8192;
          run "crash" ~crash_at:0.5 ~theta:0.99 ~entries:8192 ];
    spans = false;
    columns =
      [ int_col "entries" (fun w -> w.cfg.S.rcache_entries);
        ("zipf", fun w -> Printf.sprintf "%.2f" w.cfg.S.zipf_theta); goodput;
        ("hit rate", fun w -> Printf.sprintf "%.2f" (hit_rate w)); read_p50;
        write_p50 ];
    extras = (fun w -> [ ("hit_rate", J.Num (hit_rate w)) ]);
    gate =
      (fun rows ->
        let un = (find rows "hot-uncached").r.S.read_latency.S.p50
        and c = (find rows "hot-cached").r.S.read_latency.S.p50 in
        note "  uncached read p50 %d ns; cached read p50 %d ns (%.2fx)" un c
          (ratio c un);
        ( [ ("uncached_read_p50_ns", num un); ("cached_read_p50_ns", num c);
            ("read_speedup_ratio", J.Num (ratio c un));
            ("cached_read_p50_le_0_6x_uncached", J.Bool (5 * c <= 3 * un));
            ( "zero_ledger_mismatches",
              J.Bool
                (List.for_all (fun w -> w.r.S.ledger.S.mismatches = 0) rows) ) ],
          if 5 * c > 3 * un then
            [ Printf.sprintf
                "cached read p50 %d ns > 0.6x uncached read p50 %d ns" c un ]
          else [] )) }

(* The tcache wrapper turns the common allocation into a volatile bin
   pop (no NVMM write, no fence) with batched refills and bulk frees,
   so (a) the per-op simulated latency of a steady-state 64 B
   alloc/free mix, measured inside the simulation on one thread, must
   drop sharply against the raw allocator — the gate demands a >= 25%
   alloc p50 reduction — and (b) an end-to-end write-heavy serve run
   with --tcache-mag K must beat the same-seed mag-0 run on write (put)
   p50.  A crash run shows cached serving changes nothing about
   recovery.  The micro pair runs first, when the suite is built. *)
let alloc () =
  let mag = 8 in
  let micro ~cached =
    let mach, raw = (Workloads.Factories.poseidon ()).Workloads.Factories.make () in
    let inst = if cached then fst (Tcache.wrap ~mag raw) else raw in
    let n = scale 2000 in
    let window = 64 in
    let alloc_ns = Array.make n 0 and free_ns = Array.make n 0 in
    ignore
      (Machine.parallel mach ~threads:1 (fun _ ->
           let live = Array.make window Alloc_intf.null in
           (* warm the bins and the allocator's hash path *)
           for k = 0 to window - 1 do
             live.(k) <- Option.get (Alloc_intf.i_alloc inst 64)
           done;
           for k = 0 to n - 1 do
             let slot = k mod window in
             let t0 = Simcore.Sched.now () in
             Alloc_intf.i_free inst live.(slot);
             let t1 = Simcore.Sched.now () in
             (match Alloc_intf.i_alloc inst 64 with
              | Some p -> live.(slot) <- p
              | None -> failwith "bench alloc: out of memory");
             let t2 = Simcore.Sched.now () in
             free_ns.(k) <- t1 - t0;
             alloc_ns.(k) <- t2 - t1
           done));
    let p50 a =
      let a = Array.copy a in
      Array.sort compare a;
      a.(Array.length a / 2)
    in
    let mean a = float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int n in
    (p50 alloc_ns, mean alloc_ns, p50 free_ns, mean free_ns)
  in
  note "";
  note "### Allocation fast path: magazine cache vs raw allocator";
  let raw_p50, raw_mean, raw_fp50, raw_fmean = micro ~cached:false in
  let tc_p50, tc_mean, tc_fp50, tc_fmean = micro ~cached:true in
  let table =
    Tablefmt.create
      ~title:(Printf.sprintf "64 B alloc/free latency (mag %d)" mag)
      ~columns:[ "path"; "alloc p50"; "alloc mean"; "free p50"; "free mean" ]
  in
  let micro_row path p50 mean fp50 fmean =
    Tablefmt.add_row table path
      [ string_of_int p50; Printf.sprintf "%.0f" mean; string_of_int fp50;
        Printf.sprintf "%.0f" fmean ]
  in
  micro_row "raw" raw_p50 raw_mean raw_fp50 raw_fmean;
  micro_row "tcache" tc_p50 tc_mean tc_fp50 tc_fmean;
  Tablefmt.print table;
  note "  alloc p50: %d ns raw -> %d ns cached (%.2fx)" raw_p50 tc_p50
    (ratio tc_p50 raw_p50);
  let run ?crash_at label scope ~tcache_mag =
    ( label,
      { (base ("bench/alloc/" ^ scope)) with
        S.rate = 2_000_000.;
        read_pct = 0;
        scan_pct = 0;
        delete_pct = 10;
        tcache_mag;
        crash_at },
      None )
  in
  { title = "poseidon-kv write-heavy serving (4 shards, saturating)";
    runs =
      [ run "serve-mag0" "mag0" ~tcache_mag:0;
        run "serve-tcache" "tcache" ~tcache_mag:mag;
        run "serve-tcache-crash" "crash" ~crash_at:0.5 ~tcache_mag:mag ];
    spans = false;
    columns =
      [ int_col "mag" (fun w -> w.cfg.S.tcache_mag); goodput; write_p50;
        int_col "write p99" (fun w -> w.r.S.write_latency.S.p99) ];
    extras = no_extras;
    gate =
      (fun rows ->
        let plain = (find rows "serve-mag0").r.S.write_latency.S.p50
        and cached = (find rows "serve-tcache").r.S.write_latency.S.p50 in
        note "  serve write p50: %d ns mag 0 -> %d ns mag %d (%.2fx)" plain
          cached mag (ratio cached plain);
        ( [ ( "micro",
              J.Obj
                [ ("raw_alloc_p50_ns", num raw_p50);
                  ("raw_alloc_mean_ns", J.Num raw_mean);
                  ("tcache_alloc_p50_ns", num tc_p50);
                  ("tcache_alloc_mean_ns", J.Num tc_mean) ] );
            ("alloc_p50_ratio", J.Num (ratio tc_p50 raw_p50));
            ("alloc_p50_dropped_25pct", J.Bool (4 * tc_p50 <= 3 * raw_p50));
            ("mag0_write_p50_ns", num plain);
            ("tcache_write_p50_ns", num cached);
            ("serve_write_p50_dropped", J.Bool (cached < plain)) ],
          (if 4 * tc_p50 > 3 * raw_p50 then
             [ Printf.sprintf
                 "cached alloc p50 %d ns is not 25%% below the raw p50 %d ns"
                 tc_p50 raw_p50 ]
           else [])
          @
          if cached >= plain then
            [ Printf.sprintf
                "cached serve write p50 %d ns does not beat the mag-0 write \
                 p50 %d ns"
                cached plain ]
          else [] )) }

(* A single-op baseline against transactional mixes (server
   --txn-pct) at identical seed and offered rate exposes the 2PC tax —
   commit latency vs single-op latency, abort rate — and a crash run
   checks that recovery keeps every transaction atomic (the ledger
   treats a txn's keys as one all-or-nothing group). *)
let txn () =
  let run ?crash_at ?(solo = false) ?(pct = 0) ?(ops = 3) label =
    let cfg =
      { (base ("bench/txn/" ^ label)) with
        S.rate = 50_000.;
        txn_pct = pct;
        txn_ops = ops;
        crash_at }
    in
    ( label,
      (if solo then { cfg with S.read_pct = 0; delete_pct = 0; scan_pct = 0 }
       else cfg),
      None )
  in
  { title = "poseidon-kv: transactional mixes (4 shards)";
    runs =
      [ run "baseline"; run "txn25-2op" ~pct:25 ~ops:2;
        run "txn25-4op" ~pct:25 ~ops:4;
        run "txn100-4op" ~solo:true ~pct:100 ~ops:4;
        run "crash" ~crash_at:0.5 ~pct:25 ~ops:3 ];
    spans = false;
    columns =
      [ goodput; int_col "committed" (fun w -> w.r.S.txns_committed);
        int_col "aborted" (fun w -> w.r.S.txns_aborted);
        int_col "txn p50 ns" (fun w -> w.r.S.txn_latency.S.p50);
        int_col "txn p99 ns" (fun w -> w.r.S.txn_latency.S.p99) ];
    extras = no_extras;
    gate =
      (fun rows ->
        let b = (find rows "baseline").r and t = (find rows "txn25-2op").r in
        ( [ ( "commit_latency_tax",
              if t.S.txn_latency.S.samples > 0 then begin
                note "  2PC tax (25%% mix, 2 ops): txn p50 %d ns vs baseline \
                      single-op p50 %d ns"
                  t.S.txn_latency.S.p50 b.S.latency.S.p50;
                J.Obj
                  [ ("baseline_p50_ns", num b.S.latency.S.p50);
                    ("txn_p50_ns", num t.S.txn_latency.S.p50);
                    ( "txn_over_single_p50",
                      J.Num (ratio t.S.txn_latency.S.p50 b.S.latency.S.p50) )
                  ]
              end
              else J.Null ) ],
          [] )) }

(* Identical zipfian traffic (same seed, same offered load, below
   saturation so attribution explains service time, not admission
   queueing) run unreplicated, async- and sync-replicated, single-op
   and all-transaction, each with the span store on.  The per-run
   latency budget (Obs.Attrib over the span trees) then names the
   stage that dominates each configuration's critical path, and each
   headline tax is pinned on the budget stage whose summed time grew
   most over the same-seed baseline — the per-run dominant vote
   answers a different question (where a typical request's time goes)
   and can be carried by requests the tax never touches (e.g. reads
   under sync replication).  A budget that explains < 90% of
   end-to-end time fails the run: it means the stage taxonomy has a
   hole, and the numbers above it can't be trusted. *)
let attrib () =
  let run label ?repl ?(txn = false) () =
    let cfg =
      { (base ("bench/attrib/" ^ label)) with S.rate = 20_000.; read_pct = 20 }
    in
    ( label,
      (if txn then
         { cfg with
           S.txn_pct = 100;
           txn_ops = 3;
           read_pct = 0;
           delete_pct = 0;
           scan_pct = 0 }
       else cfg),
      repl )
  in
  let att w = Option.get w.att in
  let stage_name = function
    | Some (row : A.stage_row) -> J.Str (Obs.Span.stage_name row.A.stage)
    | None -> J.Null
  in
  let tax_stage (n : A.report) (d : A.report) =
    let base st =
      match
        List.find_opt (fun (r : A.stage_row) -> r.A.stage = st) d.A.budget
      with
      | Some r -> r.A.total_ns
      | None -> 0
    in
    List.fold_left
      (fun acc (row : A.stage_row) ->
        let delta = row.A.total_ns - base row.A.stage in
        match acc with
        | Some (_, best) when best >= delta -> acc
        | _ -> Some (row.A.stage, delta))
      None n.A.budget
  in
  let pin name n d =
    let tax = tax_stage n d in
    note "  %s: e2e p50 %d ns vs %d ns (%.1fx) — dominated by %s" name
      n.A.e2e_p50_ns d.A.e2e_p50_ns
      (ratio n.A.e2e_p50_ns d.A.e2e_p50_ns)
      (Option.fold ~none:"-" ~some:(fun (st, _) -> Obs.Span.stage_name st) tax);
    J.Obj
      [ ("p50_ns", num n.A.e2e_p50_ns);
        ("baseline_p50_ns", num d.A.e2e_p50_ns);
        ("multiple", J.Num (ratio n.A.e2e_p50_ns d.A.e2e_p50_ns));
        ( "dominant_stage",
          Option.fold ~none:J.Null
            ~some:(fun (st, _) -> J.Str (Obs.Span.stage_name st))
            tax );
        ( "dominant_stage_delta_ns",
          Option.fold ~none:J.Null ~some:(fun (_, delta) -> num delta) tax );
        ("vote_dominant_stage", stage_name (A.dominant_stage n));
        ("coverage", J.Num n.A.coverage) ]
  in
  { title = "poseidon-kv latency budgets (4 shards, same seed and load)";
    runs =
      [ run "single-unrepl" (); run "single-async" ~repl:async_rcfg ();
        run "single-sync" ~repl:sync_rcfg (); run "txn-unrepl" ~txn:true ();
        run "txn-sync" ~repl:sync_rcfg ~txn:true () ];
    spans = true;
    columns =
      [ int_col "e2e p50 ns" (fun w -> (att w).A.e2e_p50_ns);
        ("coverage", fun w -> Printf.sprintf "%.1f%%" (100. *. (att w).A.coverage));
        ( "dominant stage",
          fun w ->
            match A.dominant_stage (att w) with
            | Some row -> Obs.Span.stage_name row.A.stage
            | None -> "-" );
        ( "dom p50 ns",
          fun w ->
            match A.dominant_stage (att w) with
            | Some row -> string_of_int row.A.p50_ns
            | None -> "-" ) ];
    extras = (fun w -> [ ("attribution", A.report_json (att w)) ]);
    gate =
      (fun rows ->
        let a label = att (find rows label) in
        let unrepl = a "single-unrepl" in
        let sync = pin "sync-replication tax" (a "single-sync") unrepl in
        let txn = pin "2PC commit tax" (a "txn-unrepl") unrepl in
        ( [ ( "pins",
              J.Obj
                [ ("sync_replication_tax", sync); ("txn_commit_tax", txn) ] ) ],
          List.filter_map
            (fun w ->
              let r = att w in
              if r.A.requests > 0 && r.A.coverage < 0.9 then
                Some
                  (Printf.sprintf
                     "%s: budget explains only %.1f%% (< 90%%) of end-to-end \
                      time — stage taxonomy has a hole"
                     w.label (100. *. r.A.coverage))
              else None)
            rows )) }

(* ---------- driver ---------- *)

let write_figures name file =
  write_doc file
    (J.Obj
       [ ("schema", J.Str "poseidon-bench/v1"); ("rev", rev_json ());
         ("suite", J.Str name); ("full", J.Bool !full);
         ( "config",
           J.Obj
             [ ("full", J.Bool !full);
               ("threads", J.Arr (List.map num !thread_counts));
               ("figures", J.Arr (List.map num !figures));
               ("ablations", J.Arr (List.map (fun s -> J.Str s) !ablations)) ]
         );
         ("metrics", Obs.Metrics.snapshot ()) ])

(* Every registered suite writes BENCH_<name>.json unless --json-out
   names another file. *)
let suites =
  let serve name mk = (name, fun file -> run_suite name (mk ()) file) in
  [ serve "service" service; serve "replication" replication;
    serve "txn" txn; serve "attrib" attrib; serve "batch" batch;
    serve "mvcc" mvcc; serve "alloc" alloc; serve "rcache" rcache;
    ( "smoke",
      fun file ->
        smoke_suite ();
        write_figures "smoke" file ) ]

let () =
  let usage =
    "bench/main.exe [--figure N]... [--ablation NAME]... [--suite NAME] \
     [--full] [--threads LIST] [--bechamel] [--json-out FILE]"
  in
  let spec =
    [ ( "--figure",
        Arg.Int (fun n -> figures := n :: !figures),
        "N  run only figure N (3, 6, 7, 8 or 9); repeatable" );
      ( "--ablation",
        Arg.String (fun s -> ablations := s :: !ablations),
        "NAME  run only ablation NAME (index, subheap); repeatable" );
      ("--full", Arg.Set full, " paper-scale parameters (slow)");
      ( "--threads",
        Arg.String
          (fun s ->
            thread_counts := List.map int_of_string (String.split_on_char ',' s)),
        "LIST  comma-separated thread counts" );
      ("--bechamel", Arg.Set run_bechamel, " also run the wall-clock suite");
      ( "--suite",
        Arg.Set_string suite,
        "NAME  run a registered suite instead of the figures, writing \
         BENCH_NAME.json: "
        ^ String.concat ", " (List.map fst suites) );
      ( "--json-out",
        Arg.Set_string json_out,
        "FILE  metrics snapshot destination (default BENCH_results.json, \
         BENCH_NAME.json for --suite NAME)" ) ]
  in
  Arg.parse spec (fun _ -> ()) usage;
  note "Poseidon reproduction benchmark suite";
  note "(simulated 64-CPU, 2-NUMA-node machine with Optane-like NVMM;";
  note " see DESIGN.md and EXPERIMENTS.md for the methodology)";
  let out default = if !json_out = "" then default else !json_out in
  if !suite <> "" then begin
    match List.assoc_opt !suite suites with
    | Some run -> run (out ("BENCH_" ^ !suite ^ ".json"))
    | None ->
      Printf.eprintf "bench: unknown suite %S (known: %s)\n" !suite
        (String.concat ", " (List.map fst suites));
      exit 2
  end
  else begin
    let default = !figures = [] && !ablations = [] in
    let run_fig n = default || List.mem n !figures in
    let run_abl s = default || List.mem s !ablations in
    if run_fig 3 then figure3 ();
    if run_fig 6 then figure6 ();
    if run_fig 7 then figure7 ();
    if run_fig 8 then figure8 ();
    if run_fig 9 then figure9 ();
    if run_abl "index" then ablation_index ();
    if run_abl "capacity" then ablation_capacity ();
    if run_abl "costs" then ablation_costs ();
    if run_abl "subheap" then ablation_subheap_mpk ();
    if run_abl "ycsb-abc" then extension_ycsb_abc ();
    if run_abl "trace" then extension_trace_replay ();
    if run_abl "remote-free" then extension_remote_free ();
    if run_abl "exthash" then extension_exthash ();
    if !run_bechamel then bechamel_suite ();
    write_figures "figures" (out "BENCH_results.json")
  end
