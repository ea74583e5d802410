(* enc-contended: rounds of concurrent insert-heavy encyclopedia
   transactions (Fig. 2) under open nesting with the seeded random
   scheduler, each round on a freshly built database, each round's
   committed history then decided by the from-scratch oracle.  This is
   where open nesting pays off and where the engine's lock re-probing
   and the oracle's fixpoint dominate; no wire, log or occ work runs. *)

open Ooser_core
open Ooser_oodb
open Common
module Rng = Ooser_sim.Rng
module Protocol = Ooser_cc.Protocol
module Enc_workload = Ooser_workload.Enc_workload

let preload = 50
let fanout = 8
let txns_per_round = 40
let ops_per_txn = 4

(* rounds per second of --seconds, sized so the timed phase lasts about
   that long on a 2-CPU box *)
let rounds_per_second = 0.8

(* a calibration point at the end of every this many transaction bodies *)
let calibrate_every = 4

(* databases built in each round's timed set-up, the last one used *)
let setup_reps = 10

type op = Insert of string | Search of string | Update of string

(* The insert-heavy mix of [oosdb run]: 60% inserts of fresh keys, 30%
   searches and 10% updates of preloaded keys.  The benchmark makes the
   scripts itself, so it knows every key a committed transaction
   inserted. *)
let plan ~tag rng =
  let fresh = ref preload in
  List.init txns_per_round (fun i ->
      ( i + 1,
        List.init ops_per_txn (fun _ ->
            let r = Rng.int rng 10 in
            if r < 6 then begin
              let k = !fresh in
              incr fresh;
              Insert (Enc_workload.key_of k ^ tag)
            end
            else
              let k = Enc_workload.key_of (Rng.int rng preload) in
              if r < 9 then Search k else Update k) ))

let text_of key = "v" ^ key

(* Times of a round, at the box's quiet speed (see [Common.scaled]). *)
type round = {
  setup_s : float;  (* per database *)
  engine_s : float;
  latencies : float list;  (* round start to each commit *)
  oracle_s : float;
  commits : int;
  metrics : (string * int) list;
  steps : int;
  system : Database.t * Engine.outcome;
}

let build_db () =
  let db = Database.create () in
  let enc = Encyclopedia.create ~fanout db in
  Enc_workload.preload db enc ~keys:preload;
  (db, enc)

let run_round ~tag ~round rng =
  let plan = plan ~tag rng in
  let sched_seed = Rng.int rng 0x3fffffff in
  calibrate ();
  let (db, enc), setup =
    timed (fun () ->
        span ~txn:round ~layer:"workload" "setup" (fun () ->
            for _ = 2 to setup_reps do
              ignore (Sys.opaque_identity (build_db ()))
            done;
            build_db ()))
  in
  let commit_at = Hashtbl.create 64 in
  let bodies =
    List.map
      (fun (i, ops) ->
        let body ctx =
          List.iter
            (function
              | Insert key -> Encyclopedia.insert enc ctx ~key ~text:(text_of key)
              | Search key -> ignore (Encyclopedia.search enc ctx ~key)
              | Update key ->
                  ignore (Encyclopedia.update enc ctx ~key ~text:"upd"))
            ops;
          (* Calibration points inside the round: the scheduler's picks
             go by steps, not time, so the pause changes no decision. *)
          if i mod calibrate_every = 0 then calibrate ();
          (* the last attempt's end is the commit point *)
          Hashtbl.replace commit_at i (now ());
          Value.unit
        in
        (i, Printf.sprintf "txn%d" i, body))
      plan
  in
  let protocol = Protocol.open_nested ~reg:(Database.spec_registry db) () in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:sched_seed);
    }
  in
  calibrate ();
  let out, engine =
    timed (fun () ->
        span ~txn:round ~layer:"engine" "Engine.run" (fun () ->
            Engine.run ~config db ~protocol bodies))
  in
  calibrate ();
  let committed = out.Engine.committed in
  let latencies =
    List.filter_map
      (fun i -> Option.map (fun t -> scaled (fst engine, t)) (Hashtbl.find_opt commit_at i))
      committed
  in
  let verdict, oracle = timed (fun () -> calibrated (fun () -> decide ~round out.Engine.history)) in
  check
    (Printf.sprintf "round %d: oracle refuses the history" round)
    verdict.Serializability.oo_serializable;
  (* every key a committed transaction inserted is found afterwards *)
  let inserted =
    List.concat_map
      (fun (i, ops) ->
        if List.mem i committed then
          List.filter_map (function Insert k -> Some k | _ -> None) ops
        else [])
      plan
  in
  let verify ctx =
    Value.bool
      (List.for_all
         (fun key -> Encyclopedia.search enc ctx ~key = Some (text_of key))
         inserted)
  in
  let v =
    Engine.run db ~protocol:(Protocol.unlocked ()) [ (1, "verify", verify) ]
  in
  check
    (Printf.sprintf "round %d: an inserted key is missing" round)
    (List.assoc_opt 1 v.Engine.results = Some (Value.bool true));
  {
    setup_s = scaled setup /. float_of_int setup_reps;
    engine_s = scaled engine;
    latencies;
    oracle_s = scaled oracle;
    commits = List.length committed;
    metrics = out.Engine.metrics;
    steps = out.Engine.steps;
    system = (db, out);
  }

let run env =
  let rng = Rng.create ~seed:structure_seed and tag = tag ~seed:env.seed in
  let rounds =
    max 2 (int_of_float (Float.round (rounds_per_second *. float_of_int env.seconds)))
  in
  let gc0 = gc_mark () in
  let t0 = now () in
  let rs = List.init rounds (fun r -> run_round ~tag ~round:(r + 1) (Rng.split rng)) in
  calibrate ();
  let timed_s = scaled (t0, now ()) in
  let commits = List.fold_left (fun a r -> a + r.commits) 0 rs in
  let gc = gc_since gc0 ~units:commits in
  (* the last round's database and outcome stay reachable *)
  let live = live_heap_mb () in
  ignore (Sys.opaque_identity (List.rev rs |> List.hd).system);
  let count key =
    List.fold_left
      (fun a r -> a + Option.value ~default:0 (List.assoc_opt key r.metrics))
      0 rs
  in
  let lat = List.concat_map (fun r -> r.latencies) rs in
  let engine_s = sum (List.map (fun r -> r.engine_s) rs)
  and oracle_s = sum (List.map (fun r -> r.oracle_s) rs) in
  {
    attempted = rounds * txns_per_round;
    failed = (rounds * txns_per_round) - commits;
    timed_s;
    e2e =
      [
        ("setup_s", median (List.map (fun r -> r.setup_s) rs), "s");
        ("commit_tps", float_of_int commits /. engine_s, "1/s");
        ("commit_p50_ms", 1000.0 *. quantile lat 0.50, "ms");
        ("commit_p95_ms", 1000.0 *. quantile lat 0.95, "ms");
        ("verdict_s", median (List.map (fun r -> r.oracle_s) rs), "s");
        ("certify_tps", float_of_int commits /. oracle_s, "1/s");
        ("live_heap_mb", live, "MB");
        ("peak_heap_mb", peak_heap_mb (), "MB");
      ];
    layers =
      [
        ("engine.busy_s", engine_s, "s");
        ( "engine.steps_per_commit",
          ratio (List.fold_left (fun a r -> a + r.steps) 0 rs) commits,
          "count" );
        ("engine.attempts_per_commit", ratio (count "starts") commits, "count");
        ("engine.waits_per_commit", ratio (count "waits") commits, "count");
        ("lock.requests_per_commit", ratio (count "lock.requests") commits, "count");
        ( "lock.probes_per_grant",
          ratio (count "lock.requests") (count "lock.grants"),
          "count" );
        ("lock.conflicts_per_commit", ratio (count "lock.conflicts") commits, "count");
        ("oracle.extend_s", span_total "Extension.extend", "s");
        ("oracle.compute_s", span_total "Schedule.compute", "s");
        ("oracle.verdicts_s", span_total "Serializability.check_schedule", "s");
      ]
      @ gc;
  }
