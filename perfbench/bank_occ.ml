(* bank-occ: escrow transfers under the multiversion optimistic protocol
   with commutativity-aware validation, in waves of concurrent
   transactions on one long-lived engine; the oracle then decides the
   store's multiversion history.  The only workload through lib/occ and
   the escrow ADT, where version chains and the committed list grow
   with history. *)

open Ooser_core
open Ooser_oodb
open Common
module Rng = Ooser_sim.Rng
module Occ = Ooser_occ

let accounts = 10

(* Balances this large cannot be drained by the run's transfers, so no
   withdrawal ever fails its bound. *)
let initial = 1_000_000
let wave = 32
let transfers_per_txn = 2

(* Each round runs [waves_per_round] waves on one fresh long-lived
   engine; the oracle's cost grows faster than linearly with the
   history it decides, so a run is several such rounds, one per 2.5 s
   of --seconds. *)
let waves_per_round = 64
let rounds_per_second = 0.4

(* Each round times [setup_batches] batches of [setup_reps] set-ups,
   each batch as one interval; the last set-up is the one used. *)
let setup_batches = 9
let setup_reps = 1000

type transfer = { src : int; dst : int; amount : int }

(* Which accounts a transfer joins, and the schedule, come from
   [structure_seed] (see [Common.tag]); the amounts, which change no
   decision at these balances, come from --seed. *)
let plan ~amounts rng =
  List.init transfers_per_txn (fun _ ->
      let src = Rng.int rng accounts in
      let dst = (src + 1 + Rng.int rng (accounts - 1)) mod accounts in
      { src; dst; amount = 1 + Rng.int amounts 5 })

let acct i = Occ.Workloads.account_obj i

let setup ~sched_seed () =
  let db, store =
    Occ.Workloads.setup_banking ~mode:Occ.Store.Commute ~accounts
      ~balance:initial ~low:0 ~high:max_int ()
  in
  let protocol = Occ.Store.protocol store in
  let config =
    {
      (Engine.default_config protocol) with
      Engine.strategy = Engine.Random_pick (Rng.create ~seed:sched_seed);
    }
  in
  (store, Engine.create ~config db ~protocol [])

(* calibration points every this many waves *)
let calibrate_every = 8

type round = {
  setups : float list;  (* per set-up, one per batch *)
  waves : float * float;
  busy : (float * float) list;
  latencies : (float * float) list;  (* submission to commit *)
  commits : int;
  wave_ends : float list;
  oracle_s : float;  (* at the box's quiet speed *)
  counts : (string * int) list;
  versions : int;
  system : Occ.Store.t * Engine.t;
}

let run_round ~amounts ~round rng =
  let sched_seed = Rng.int rng 0x3fffffff in
  let batches =
    List.init setup_batches (fun _ ->
        calibrate ();
        timed (fun () ->
            span ~txn:round ~layer:"workload" "setup" (fun () ->
                for _ = 2 to setup_reps do
                  ignore (Sys.opaque_identity (setup ~sched_seed ()))
                done;
                setup ~sched_seed ())))
  in
  let store, eng = fst (List.nth batches (setup_batches - 1)) in
  let n = waves_per_round * wave in
  let plans = Array.init n (fun _ -> plan ~amounts rng) in
  let commit_at = Array.make n 0.0 and submitted_at = Array.make n 0.0 in
  let net = Array.make accounts 0 in
  let latencies = ref [] and wave_ends = ref [] and busy = ref [] in
  calibrate ();
  let t0 = now () in
  for w = 0 to waves_per_round - 1 do
    if w > 0 && w mod calibrate_every = 0 then calibrate ();
    let tops = List.init wave (fun k -> (w * wave) + k + 1) in
    List.iter
      (fun top ->
        let body ctx =
          List.iter
            (fun t ->
              ignore (Runtime.call ctx (acct t.src) "withdraw" [ Value.int t.amount ]);
              ignore (Runtime.call ctx (acct t.dst) "deposit" [ Value.int t.amount ]))
            plans.(top - 1);
          (* the last attempt's end precedes its validation and commit *)
          commit_at.(top - 1) <- now ();
          Value.unit
        in
        submitted_at.(top - 1) <- now ();
        Engine.submit eng ~top ~name:(Printf.sprintf "transfer%d" top) body)
      tops;
    let _, pump =
      timed (fun () -> span ~txn:round ~layer:"engine" "Engine.pump" (fun () -> Engine.pump eng))
    in
    busy := pump :: !busy;
    List.iter
      (fun top ->
        match Engine.txn_state eng top with
        | `Committed _ ->
            List.iter
              (fun t ->
                net.(t.src) <- net.(t.src) - t.amount;
                net.(t.dst) <- net.(t.dst) + t.amount)
              plans.(top - 1);
            latencies := (submitted_at.(top - 1), commit_at.(top - 1)) :: !latencies;
            ignore (Engine.retire eng ~top)
        | _ -> ())
      tops;
    wave_ends := now () :: !wave_ends
  done;
  let waves = (t0, now ()) in
  calibrate ();
  (* balances are conserved, account by account *)
  for i = 0 to accounts - 1 do
    check
      (Printf.sprintf "round %d: Account%d is not its initial balance plus net transfers" round i)
      (Value.to_int_exn (Occ.Store.committed_state store (acct i)) = initial + net.(i))
  done;
  let verdict, oracle =
    timed (fun () -> calibrated (fun () -> decide ~round (Occ.Store.history store)))
  in
  check (Printf.sprintf "round %d: oracle refuses the store history" round)
    verdict.Serializability.oo_serializable;
  let ec = Engine.counters eng and sc = Occ.Store.counters store in
  let counts =
    List.map (fun k -> ("engine." ^ k, Ooser_sim.Stats.Counter.get ec k)) [ "starts"; "waits" ]
    @ List.map (fun k -> ("occ." ^ k, Ooser_sim.Stats.Counter.get sc k))
        [ "validations"; "aborts"; "commute-saves" ]
    @ [ ("engine.steps", Engine.steps eng) ]
  in
  {
    setups = List.map (fun (_, iv) -> scaled iv /. float_of_int setup_reps) batches;
    waves;
    busy = !busy;
    latencies = !latencies;
    commits = List.length !latencies;
    wave_ends = List.rev !wave_ends;
    oracle_s = scaled oracle;
    counts;
    versions =
      List.init accounts (fun i -> List.length (Occ.Store.versions store (acct i)))
      |> List.fold_left ( + ) 0;
    system = (store, eng);
  }

let run env =
  let rng = Rng.create ~seed:structure_seed and amounts = Rng.create ~seed:env.seed in
  let rounds = max 2 (int_of_float (Float.round (rounds_per_second *. float_of_int env.seconds))) in
  let gc0 = gc_mark () in
  let t0 = now () in
  let rs = List.init rounds (fun r -> run_round ~amounts ~round:(r + 1) (Rng.split rng)) in
  calibrate ();
  let timed_s = scaled (t0, now ()) in
  let commits = List.fold_left (fun a r -> a + r.commits) 0 rs in
  let gc = gc_since gc0 ~units:commits in
  let live = live_heap_mb () in
  ignore (Sys.opaque_identity (List.rev rs |> List.hd).system);
  let count k = List.fold_left (fun a r -> a + List.assoc k r.counts) 0 rs in
  let per_round f = median (List.map f rs) in
  let lat = List.concat_map (fun r -> List.map scaled r.latencies) rs in
  let oracle_s = sum (List.map (fun r -> r.oracle_s) rs) in
  {
    attempted = rounds * waves_per_round * wave;
    failed = (rounds * waves_per_round * wave) - commits;
    timed_s;
    e2e =
      [
        ("setup_s", median (List.concat_map (fun r -> r.setups) rs), "s");
        ("commit_tps", float_of_int commits /. sum (List.map (fun r -> scaled r.waves) rs), "1/s");
        ("commit_p50_ms", 1000.0 *. quantile lat 0.50, "ms");
        ("commit_p95_ms", 1000.0 *. quantile lat 0.95, "ms");
        ("verdict_s", per_round (fun r -> r.oracle_s), "s");
        ("certify_tps", float_of_int commits /. oracle_s, "1/s");
        ("live_heap_mb", live, "MB");
        ("peak_heap_mb", peak_heap_mb (), "MB");
      ];
    layers =
      [
        ("engine.busy_s", sum (List.concat_map (fun r -> List.map scaled r.busy) rs), "s");
        ("engine.steps_per_commit", ratio (count "engine.steps") commits, "count");
        ("engine.attempts_per_commit", ratio (count "engine.starts") commits, "count");
        ("engine.waits_per_commit", ratio (count "engine.waits") commits, "count");
        ( "engine.late_over_early",
          per_round (fun r -> late_over_early ~start:(fst r.waves) r.wave_ends),
          "ratio" );
        ("oracle.extend_s", span_total "Extension.extend", "s");
        ("oracle.compute_s", span_total "Schedule.compute", "s");
        ("oracle.verdicts_s", span_total "Serializability.check_schedule", "s");
        ("occ.validations_per_commit", ratio (count "occ.validations") commits, "count");
        ("occ.aborts_per_commit", ratio (count "occ.aborts") commits, "count");
        ( "occ.probes_per_validation",
          ratio (count "occ.commute-saves") (count "occ.validations"),
          "count" );
        ("occ.versions_retained", per_round (fun r -> float_of_int r.versions), "count");
      ]
      @ gc;
  }
