(* audit: recorded histories certified offline by [Certify.run] on one
   worker.  Each history is a synthetic [Bench_trace] (bursts of
   overlapping flat transactions over a bounded key universe, so the
   segmenter must cut heuristically and the certifier probes edges
   within each segment).  The auditor receives a stream of histories of
   a thousand transactions, answering each with a verdict, then four
   larger ones of five thousand.  Bypasses the engine, the locks and the
   server. *)

open Common
module BT = Ooser_certify.Bench_trace
module Certify = Ooser_certify.Certify
module Trace = Ooser_certify.Trace

let txns_per_history = 1000
let keys = 256
let large = { BT.default_params with BT.txns = 5000; keys = 512 }
let larges = 6

(* histories per second of --seconds, made and loaded in batches *)
let histories_per_second = 20.0
let batch = 25
let calibrate_every = 4

let params ~seed = { BT.default_params with BT.txns = txns_per_history; keys; seed }

(* Write a history to the pass's directory and load it back. *)
let make env name p =
  let path = Filename.concat env.dir name in
  BT.generate ~path p;
  let t = span ~layer:"certify" "Trace.load" (fun () -> Trace.load path) in
  Sys.remove path;
  t

let registry = BT.registry ()

let certify ~txn t =
  span ~txn ~layer:"certify" "Certify.run" (fun () -> Certify.run ~workers:1 ~registry t)

(* One batch: make and load its histories (the set-up), then certify
   each.  Returns the set-up interval and, per history, the certify
   interval and report. *)
let run_batch env ~first seeds =
  calibrate ();
  let traces, setup =
    timed (fun () ->
        span ~layer:"workload" "setup" (fun () ->
            List.mapi
              (fun i s -> make env (Printf.sprintf "h%d.trace" (first + i)) (params ~seed:s))
              seeds))
  in
  let results =
    List.mapi
      (fun i t ->
        if i mod calibrate_every = 0 then calibrate ();
        let r, iv = timed (fun () -> certify ~txn:(first + i) t) in
        check
          (Printf.sprintf "history %d: %d of %d transactions certified" (first + i)
             r.Certify.txns txns_per_history)
          (r.Certify.txns = txns_per_history);
        (iv, r))
      traces
  in
  (setup, results)

let run env =
  let rng = Ooser_sim.Rng.create ~seed:env.seed in
  let n =
    batch * max 1 (int_of_float (Float.round (histories_per_second *. float_of_int env.seconds)) / batch)
  in
  let seeds = List.init n (fun _ -> Ooser_sim.Rng.int rng 0x3fffffff) in
  (* the larger histories' cost depends on their content more than the
     small ones' does: they are the same in every run (see
     [Common.structure_seed]) *)
  let big_traces =
    List.init larges (fun i ->
        make env (Printf.sprintf "large%d.trace" i) { large with BT.seed = structure_seed + i })
  in
  let planted =
    make env "planted.trace" { (params ~seed:(List.hd seeds)) with BT.plant_cycle = true }
  in
  let gc0 = gc_mark () in
  let t0 = now () in
  let batches =
    List.init (n / batch) (fun b ->
        run_batch env ~first:(b * batch) (List.filteri (fun i _ -> i / batch = b) seeds))
  in
  calibrate ();
  let bigs =
    List.mapi
      (fun i t ->
        let r, iv = timed (fun () -> calibrated (fun () -> certify ~txn:(n + i) t)) in
        calibrate ();
        (iv, r))
      big_traces
  in
  let timed_s = scaled (t0, now ()) in
  check "planted cycle accepted" (not (certify ~txn:(n + larges) planted).Certify.ok);
  let results = List.concat_map snd batches in
  (* a clean history the certifier refuses is a failed operation *)
  let refused =
    List.length (List.filter (fun (_, r) -> not r.Certify.ok) (results @ bigs))
  in
  if refused > 0 then Printf.eprintf "perfbench: %d clean histories refused\n%!" refused;
  let txns = List.fold_left (fun a (_, r) -> a + r.Certify.txns) 0 results in
  let gc = gc_since gc0 ~units:txns in
  let live = live_heap_mb () in
  ignore (Sys.opaque_identity big_traces);
  (* the certifier's own phase clocks, at the speed of their interval *)
  let phase f =
    sum (List.map (fun (((a, b) as iv), r) -> f r *. scaled iv /. (b -. a)) (bigs @ results))
  in
  let big_txns = List.fold_left (fun a (_, r) -> a + r.Certify.txns) 0 bigs in
  let lat = List.map (fun (iv, _) -> scaled iv) results in
  {
    attempted = n + larges + 1;
    failed = refused;
    timed_s;
    e2e =
      [
        ("setup_s", median (List.map (fun (iv, _) -> scaled iv) batches), "s");
        ("commit_tps", float_of_int txns /. sum lat, "1/s");
        ("commit_p50_ms", 1000.0 *. quantile lat 0.50, "ms");
        ("commit_p95_ms", 1000.0 *. quantile lat 0.95, "ms");
        ("verdict_s", sum (List.map (fun (iv, _) -> scaled iv) bigs) /. float_of_int larges, "s");
        ( "certify_tps",
          float_of_int (txns + big_txns) /. phase (fun r -> r.Certify.seg_seconds),
          "1/s" );
        ("live_heap_mb", live, "MB");
        ("peak_heap_mb", peak_heap_mb (), "MB");
      ];
    layers =
      [
        ("certify.load_s", span_total "Trace.load", "s");
        ("certify.segment_s", phase (fun r -> r.Certify.seg_seconds), "s");
        ("certify.stitch_s", phase (fun r -> r.Certify.stitch_seconds), "s");
        ( "certify.act_edges",
          float_of_int
            (List.fold_left (fun a (_, r) -> a + r.Certify.act_edges)
               (List.fold_left (fun a (_, r) -> a + r.Certify.act_edges) 0 bigs)
               results),
          "count" );
      ]
      @ gc;
  }
