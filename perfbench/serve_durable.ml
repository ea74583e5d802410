(* serve-durable: an in-process [Server] (encyclopedia, open nesting,
   journal forced at every commit, history recorded for offline
   certification) loaded by two closed-loop client sessions over a unix
   socket, thousands of transactions on one live engine.  Covers the
   request path (wire, session, [Server.step], oplog force) and the
   growth of engine state with history, with little lock contention and
   no oracle in the timed phase.

   The client is the benchmark's own: both sessions are non-blocking
   and advance independently inside one loop that also steps the
   server, because a client that waited on one session while the other
   held a lock would deadlock itself.  After the timed phase the server
   is shut down and rebooted from its directory in a child process that
   the benchmark stops at a limit it sets. *)

open Ooser_core
open Ooser_oodb
open Common
module Rng = Ooser_sim.Rng
module Server = Ooser_server.Server
module Wire = Ooser_server.Wire
module Oplog = Ooser_recovery.Oplog
module Snapshot = Ooser_recovery.Snapshot
module Recovery = Ooser_recovery.Recovery
module Counter = Ooser_sim.Stats.Counter

let sessions = 2
let calls_per_txn = 4
let preload = 200

(* commits per second of --seconds *)
let commits_per_second = 100
let boot_reps = 5

(* How long the rebooted server may take before the benchmark stops it,
   and the search batch size of the after-run verification. *)
let restart_limit_s = 6.0
let verify_batch = 50

type call = { obj : string; meth : string; args : Value.t list }

type state =
  | Awaiting_welcome
  | Awaiting_begun
  | Awaiting_result of call list  (* calls still to send after this reply *)
  | Awaiting_commit
  | Done

type acked = { a_top : int; a_calls : call list; a_inserts : string list }

type sess = {
  sid : int;
  fd : Unix.file_descr;
  framer : Wire.Framer.t;
  rng : Rng.t;
  tag : string;
  mutable out : string;
  mutable state : state;
  mutable left : int;  (* transactions still to run *)
  mutable fresh : int;
  mutable top : int;
  mutable began : at;
  mutable sent : call list;  (* this transaction's calls done, newest first *)
  mutable refused : bool;  (* a call of this transaction was refused *)
  mutable req_t0 : at;
}

and at = { t : float; c : float; f : int }  (* wall, CPU time, log forces *)

(* the server's log forces so far, once it is up *)
let forces = ref (fun () -> 0)

let stamp () = { t = now (); c = cpu (); f = !forces () }
let zero = { t = 0.0; c = 0.0; f = 0 }

(* an interval's time, taken as [Common.scaled_disk] takes it *)
let disk_s (a, b) = scaled_disk (a.t, b.t) (a.c, b.c) ~fsyncs:(b.f - a.f)

type totals = {
  mutable acked : acked list;
  mutable n_acked : int;
  mutable commit_lat : (at * at) list;
  mutable commit_times : float list;
  mutable call_rtt : (at * at) list;
  mutable bytes : int;
  mutable bad : int;  (* transactions aborted or with a refused call *)
}

let key_of i = Printf.sprintf "k%05d" i

(* 30% inserts of fresh keys, 40% searches and 30% updates of preloaded
   keys — the loadgen encyclopedia mix. *)
let gen_call s =
  let pick = Rng.int s.rng 100 in
  if pick < 30 then begin
    s.fresh <- s.fresh + 1;
    let k = Printf.sprintf "c%dn%05d%s" s.sid s.fresh s.tag in
    { obj = "Enc"; meth = "insert"; args = [ Value.str k; Value.str ("v" ^ k) ] }
  end
  else
    let k = key_of (Rng.int s.rng preload) in
    if pick < 70 then { obj = "Enc"; meth = "search"; args = [ Value.str k ] }
    else { obj = "Enc"; meth = "update"; args = [ Value.str k; Value.str "upd" ] }

let send s req =
  s.out <- s.out ^ Wire.frame (Wire.encode_request req);
  s.req_t0 <- stamp ()

let send_call s c =
  s.sent <- c :: s.sent;
  send s (Wire.Call { obj = c.obj; meth = c.meth; args = c.args })

let begin_txn s =
  if s.left = 0 then s.state <- Done
  else begin
    s.left <- s.left - 1;
    s.sent <- [];
    s.refused <- false;
    s.began <- stamp ();
    send s (Wire.Begin { name = Printf.sprintf "c%d.%d" s.sid s.left; timeout_ms = 0 });
    s.state <- Awaiting_begun
  end

let inserts_of calls =
  List.filter_map
    (fun c -> match (c.meth, c.args) with "insert", Value.Str k :: _ -> Some k | _ -> None)
    calls

let on_response tot s (resp : Wire.response) =
  let t = stamp () in
  async_span ~txn:s.top ~layer:"wire" "request" ~t0:s.req_t0.t ~t1:t.t;
  match (resp, s.state) with
  | Wire.Welcome _, Awaiting_welcome -> begin_txn s
  | Wire.Begun { top }, Awaiting_begun ->
      s.top <- top;
      let calls = List.init calls_per_txn (fun _ -> gen_call s) in
      send_call s (List.hd calls);
      s.state <- Awaiting_result (List.tl calls)
  | (Wire.Result _ | Wire.Failed _), Awaiting_result rest ->
      tot.call_rtt <- (s.req_t0, t) :: tot.call_rtt;
      (* a refused call is rolled back alone: it is not in the log *)
      (match resp with
      | Wire.Failed _ ->
          s.sent <- List.tl s.sent;
          s.refused <- true
      | _ -> ());
      (match rest with
      | c :: rest ->
          send_call s c;
          s.state <- Awaiting_result rest
      | [] ->
          send s Wire.Commit;
          s.state <- Awaiting_commit)
  | Wire.Committed _, Awaiting_commit ->
      let calls = List.rev s.sent in
      tot.acked <- { a_top = s.top; a_calls = calls; a_inserts = inserts_of calls } :: tot.acked;
      tot.n_acked <- tot.n_acked + 1;
      tot.commit_lat <- (s.began, t) :: tot.commit_lat;
      tot.commit_times <- t.t :: tot.commit_times;
      if s.refused then tot.bad <- tot.bad + 1;
      begin_txn s
  | Wire.Aborted _, (Awaiting_result _ | Awaiting_commit) ->
      tot.bad <- tot.bad + 1;
      begin_txn s
  | r, _ ->
      check (Fmt.str "session %d: unexpected %a" s.sid Wire.pp_response r) false;
      s.state <- Done

(* Write what the session owes and read what has arrived; the number of
   bytes moved. *)
let io s =
  let moved = ref 0 in
  (if s.out <> "" then
     match Unix.write_substring s.fd s.out 0 (String.length s.out) with
     | n ->
         moved := n;
         s.out <- String.sub s.out n (String.length s.out - n)
     | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
  let buf = Bytes.create 65536 in
  let rec drain () =
    match Unix.read s.fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "server closed the connection"
    | n ->
        moved := !moved + n;
        Wire.Framer.feed s.framer (Bytes.sub_string buf 0 n);
        drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  drain ();
  !moved

let next_frame s =
  match Wire.Framer.pop s.framer with
  | Ok (Some payload) -> Some (Wire.decode_response payload)
  | Ok None -> None
  | Error msg -> failwith msg

(* Move the session's bytes and answer each frame that arrived. *)
let poll tot s =
  tot.bytes <- tot.bytes + io s;
  let rec frames () =
    match next_frame s with
    | Some resp ->
        on_response tot s resp;
        frames ()
    | None -> ()
  in
  frames ()

let connect ~sock ~sid ~rng ~tag ~txns =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.set_nonblock fd;
  let s =
    { sid; fd; framer = Wire.Framer.create (); rng; tag; out = ""; state = Awaiting_welcome;
      left = txns; fresh = 0; top = 0; began = zero; sent = []; refused = false;
      req_t0 = zero }
  in
  send s (Wire.Hello (Printf.sprintf "perfbench%d" sid));
  s

(* A calibration point after every this many commits.  Each point
   forces minor collections, which promote what the server holds young
   and so add to its major collector's work: placed by commits, not by
   time, they add the same work to every run, however fast it goes. *)
let calibrate_every = 25

(* Step the server and both sessions until every session is done. *)
let drive srv tot ss =
  let deadline = now () +. 170.0 in
  let last = ref 0 in
  while List.exists (fun s -> s.state <> Done) ss do
    if now () > deadline then failwith "serve-durable: run exceeded its time limit";
    if tot.n_acked >= !last + calibrate_every then begin
      calibrate ();
      last := tot.n_acked
    end;
    span ~fsyncs:!forces ~layer:"server" "Server.step" (fun () -> Server.step srv ~timeout:0.0);
    span ~fsyncs:!forces ~layer:"wire" "client.poll" (fun () -> List.iter (poll tot) ss)
  done

let config ~dir =
  {
    (Server.default_config (Server.Unix_sock (Filename.concat dir "s.sock"))) with
    Server.preload;
    durable_dir = Some (Filename.concat dir "db");
    trace_path = Some (Filename.concat dir "history.trace");
  }

let boot ~dir =
  mkdir_p (Filename.concat dir "db");
  Server.create (config ~dir)

(* Every acknowledged commit is a committed attempt of the stable log,
   carrying exactly the calls the client sent, in order. *)
let check_log ~db_dir acked =
  let plan = Recovery.analyze (Oplog.load ~dir:db_dir) in
  let committed = Hashtbl.create 1024 in
  List.iter
    (fun (a : Recovery.attempt) ->
      if a.Recovery.disposition = Recovery.Committed then
        Hashtbl.replace committed a.Recovery.top a)
    plan.Recovery.attempts;
  List.iter
    (fun k ->
      match Hashtbl.find_opt committed k.a_top with
      | None -> check (Printf.sprintf "acked transaction %d not in the stable log" k.a_top) false
      | Some a ->
          let logged =
            List.map
              (fun (_, (inv : Oplog.invocation), _) ->
                { obj = Obj_id.name inv.Oplog.obj; meth = inv.Oplog.meth; args = inv.Oplog.args })
              a.Recovery.calls
          in
          check
            (Printf.sprintf "transaction %d: logged calls differ from the calls sent" k.a_top)
            (List.length logged = List.length k.a_calls
            && List.for_all2
                 (fun x y -> x.obj = y.obj && x.meth = y.meth && List.equal Value.equal x.args y.args)
                 logged k.a_calls))
    acked

let found key v = Value.equal v (Value.pair (Value.str "found") (Value.str ("v" ^ key)))

(* One request on an idle session, stepping the server until the answer
   arrives. *)
let request srv s req =
  send s req;
  let rec wait () =
    Server.step srv ~timeout:0.0;
    ignore (io s);
    match next_frame s with Some resp -> resp | None -> wait ()
  in
  wait ()

(* A search after the run finds every acknowledged insert: read-only
   transactions of [verify_batch] searches over one session. *)
let check_inserts srv s keys =
  let rec split n = function
    | k :: rest when n > 0 ->
        let batch, rest = split (n - 1) rest in
        (k :: batch, rest)
    | rest -> ([], rest)
  in
  let rec batches keys =
    if keys <> [] then begin
      let batch, rest = split verify_batch keys in
      (match request srv s (Wire.Begin { name = "verify"; timeout_ms = 0 }) with
      | Wire.Begun _ -> ()
      | _ -> check "verification transaction not admitted" false);
      List.iter
        (fun k ->
          match request srv s (Wire.Call { obj = "Enc"; meth = "search"; args = [ Value.str k ] }) with
          | Wire.Result v when found k v -> ()
          | _ -> check (Printf.sprintf "acknowledged insert %s not found" k) false)
        batch;
      (match request srv s Wire.Commit with
      | Wire.Committed _ -> ()
      | _ -> check "verification transaction did not commit" false);
      batches rest
    end
  in
  batches keys

(* Offline certification of the recorded history with the program's own
   CLI, [oosdb certify] on one worker: exit 0 iff certified.  The
   segment target of one transaction cuts at every quiescent point; two
   sessions leave many, and the certifier's per-segment cost grows fast
   with segment length on this nested history. *)
let oosdb = "_build/default/bin/oosdb.exe"

let certify_offline trace =
  let out = trace ^ ".json" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  calibrate ();
  let t0 = now () in
  let pid =
    Unix.create_process oosdb [| oosdb; "certify"; "--workers"; "1"; "--segment-target"; "1"; "--json"; trace |]
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let status = wait_child pid in
  let iv = (t0, now ()) in
  let json = In_channel.with_open_bin out In_channel.input_all in
  (status = Unix.WEXITED 0, iv, json)

(* The number after ["key":] in a flat JSON object. *)
let json_number json key =
  let pat = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if i + String.length pat > String.length json then None
    else if String.sub json i (String.length pat) = pat then Some (i + String.length pat)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let j = ref i in
      while !j < String.length json && String.contains " -+.0123456789eE" json.[!j] do incr j done;
      float_of_string_opt (String.trim (String.sub json i (!j - i)))

(* Reboot from the run's directory in a child process: the child exits
   0 once the server is up and its recovery report names every
   acknowledged commit a winner.  The parent stops it at
   [restart_limit_s]. *)
let restart ~dir n_acked =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let srv =
            Server.create
              { (config ~dir) with Server.addr = Server.Unix_sock (Filename.concat dir "r.sock");
                trace_path = None }
          in
          match Server.last_recovery srv with
          | Some r when r.Engine.recertified -> if List.length r.Engine.rec_winners >= n_acked then 0 else 1
          | _ -> 1
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      let t0 = now () in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when now () -. t0 < restart_limit_s ->
            Unix.sleepf 0.01;
            wait ()
        | 0, _ ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            false
        | _, status -> status = Unix.WEXITED 0
      in
      wait ()

(* A copy of the server's durable directory, taken before the server is
   shut down: shutting down checkpoints it, folding the log into the
   snapshot. *)
let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let data = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          Out_channel.output_string oc data))
    (Sys.readdir src)

(* Replay alone, with re-certification off, from [db_dir], a copy of the
   run's log and of the snapshot taken at boot: the redo of the whole
   log.  The recovered database must hold every acknowledged insert. *)
let replay ~dir ~db_dir (acked : acked list) =
  let cfg = config ~dir in
  let db = Server.build_db cfg in
  let protocol = Server.build_protocol cfg db in
  let snapshot = Snapshot.load ~dir:db_dir in
  let records = Oplog.load ~dir:db_dir in
  calibrate ();
  let t0 = now () in
  let eng, report =
    calibrated (fun () ->
        span ~layer:"recovery" "Engine.recover" (fun () ->
            Engine.recover ?snapshot ~recertify:false db ~protocol (Oplog.of_records records)))
  in
  let replay = (t0, now ()) in
  calibrate ();
  let redone = Hashtbl.create 1024 in
  List.iter
    (fun (a : Recovery.attempt) ->
      if a.Recovery.disposition = Recovery.Committed && not a.Recovery.skip then
        Hashtbl.replace redone a.Recovery.top ())
    report.Engine.plan.Recovery.attempts;
  check "replay redid an acknowledged commit from the snapshot, not the log"
    (List.for_all (fun k -> Hashtbl.mem redone k.a_top) acked);
  check "replayed calls failed" (report.Engine.replay_failures = 0);
  let keys = List.concat_map (fun k -> k.a_inserts) acked in
  let body ctx =
    Value.bool
      (List.for_all
         (fun k -> found k (Runtime.call ctx (Obj_id.v "Enc") "search" [ Value.str k ]))
         keys)
  in
  Engine.submit eng ~top:max_int ~name:"verify" body;
  ignore (Engine.pump eng);
  check "recovered database misses an acknowledged insert"
    (Engine.txn_state eng max_int = `Committed (Value.bool true));
  scaled replay

let run env =
  let rng = Rng.create ~seed:structure_seed and tag = tag ~seed:env.seed in
  (* a boot forces no log: its time is its CPU time (the one fsync of its
     snapshot is left out) *)
  forces := (fun () -> 0);
  let boots =
    List.init boot_reps (fun i ->
        let dir = Filename.concat env.dir (Printf.sprintf "boot%d" i) in
        calibrate ();
        let t0 = stamp () in
        let srv = span ~layer:"workload" "setup" (fun () -> boot ~dir) in
        ((t0, stamp ()), (dir, srv)))
  in
  let dir, srv = snd (List.nth boots (boot_reps - 1)) in
  List.iter (fun (_, (_, s)) -> if s != srv then Server.close s) boots;
  let commits = max 20 (commits_per_second * env.seconds) in
  let per_session = commits / sessions in
  let tot = { acked = []; n_acked = 0; commit_lat = []; commit_times = []; call_rtt = []; bytes = 0; bad = 0 } in
  let ss =
    List.init sessions (fun sid ->
        connect ~sock:(Filename.concat dir "s.sock") ~sid ~rng:(Rng.split rng) ~tag ~txns:per_session)
  in
  let ec = Engine.counters (Server.engine srv) in
  forces := (fun () -> Counter.get ec "log-forces");
  let probe =
    Unix.openfile (Filename.concat env.dir "fsync-probe") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  probe_fd := Some probe;
  let gc0 = gc_mark () in
  calibrate ();
  let t0 = stamp () in
  drive srv tot ss;
  let t1 = stamp () in
  calibrate ();
  probe_fd := None;
  Unix.close probe;
  let n = List.length tot.acked in
  let gc = gc_since gc0 ~units:n in
  let live = live_heap_mb () in
  ignore (Sys.opaque_identity (srv, ss));
  let eng = Server.engine srv in
  let pc = Ooser_cc.Protocol.counters (Server.protocol srv) in
  let eget = Counter.get ec and pget = Counter.get pc in
  let steps = Engine.steps eng in
  let db_dir = Filename.concat dir "db" in
  let log_bytes = (Unix.stat (Oplog.log_file ~dir:db_dir)).Unix.st_size in
  let txns = per_session * sessions in
  (* transactions that did not commit, or committed with a refused call *)
  let failed = txns - n + tot.bad in
  if failed > 0 then Printf.eprintf "perfbench: %d of %d transactions failed\n%!" failed txns;
  let acked = List.rev tot.acked in
  check_log ~db_dir acked;
  check_inserts srv (List.hd ss) (List.concat_map (fun k -> k.a_inserts) acked);
  let copy = Filename.concat dir "db-copy" in
  if !tracing then copy_dir db_dir copy;
  List.iter (fun s -> Unix.close s.fd) ss;
  Server.close srv;
  let certified, certify_iv, json =
    certify_offline (Filename.concat dir "history.trace")
  in
  check "oosdb certify refuses the recorded history" certified;
  let certified_txns = Option.value ~default:0.0 (json_number json "txns") in
  check "recorded history holds every acknowledged commit" (int_of_float certified_txns >= n);
  (* the certifier's own segment phase, at the speed of its interval *)
  let seg_s =
    Option.value ~default:0.0 (json_number json "seg_seconds")
    *. scaled_beside certify_iv /. (snd certify_iv -. fst certify_iv)
  in
  let replay_s = if !tracing then replay ~dir ~db_dir:copy acked else 0.0 in
  let restarted = restart ~dir n in
  let timed_s = disk_s (t0, t1) in
  let ms_at q ivs = 1000.0 *. quantile (List.map disk_s ivs) q in
  {
    attempted = txns + 1;
    failed = failed + (if restarted then 0 else 1);
    timed_s;
    e2e =
      [
        ("setup_s", median (List.map (fun (iv, _) -> disk_s iv) boots), "s");
        ("commit_tps", float_of_int n /. timed_s, "1/s");
        ("commit_p50_ms", ms_at 0.50 tot.commit_lat, "ms");
        ("commit_p95_ms", ms_at 0.95 tot.commit_lat, "ms");
        ("verdict_s", scaled_beside certify_iv, "s");
        ("certify_tps", certified_txns /. seg_s, "1/s");
        ("live_heap_mb", live, "MB");
        ("peak_heap_mb", peak_heap_mb (), "MB");
      ];
    layers =
      [
        ("engine.steps_per_commit", ratio steps n, "count");
        ("engine.attempts_per_commit", ratio (eget "starts") n, "count");
        ("engine.waits_per_commit", ratio (eget "waits") n, "count");
        ("engine.late_over_early", late_over_early ~start:t0.t (List.rev tot.commit_times), "ratio");
        ("lock.requests_per_commit", ratio (pget "requests") n, "count");
        ("lock.probes_per_grant", ratio (pget "requests") (pget "grants"), "count");
        ("lock.conflicts_per_commit", ratio (pget "conflicts") n, "count");
        ("server.step_s", span_total "Server.step", "s");
        ("wire.call_p50_ms", ms_at 0.50 tot.call_rtt, "ms");
        ("wire.bytes_per_commit", ratio tot.bytes n, "bytes");
        ("oplog.forces_per_commit", ratio (eget "log-forces") n, "count");
        ("oplog.appends_per_commit", ratio (eget "log-appends") n, "count");
        ("oplog.bytes_per_commit", ratio log_bytes n, "bytes");
        ("recovery.replay_s", replay_s, "s");
      ]
      @ gc;
  }
