(* Shared pieces of the benchmark: the clock and its scaling to machine
   speed, in-memory spans, statistics over raw samples, heap readings,
   checks and the inputs' tag. *)

let now = Unix.gettimeofday

(* -- machine speed ------------------------------------------------------------

   The 2-CPU box this benchmark was tuned on shares its memory system with
   other tenants, and its speed drifts by tens of percent within seconds:
   the same engine round (same seed, same work) took 0.37 s in one run
   and 0.57 s in the next.  So the benchmark brackets its timed intervals
   with calibration points, each the median of five runs of a fixed loop
   that uses the OCaml stdlib only, never the program, and every time it
   reports is the wall time of its interval, calibration excluded, scaled
   by [ref_kernel_s] over the loop's time around the interval: seconds on
   this box at its quiet speed.  Intervals that wait on the disk are
   measured apart ([scaled_disk]).  The raw loop time is reported as
   [machine.kernel_ms]. *)

let ref_kernel_s = 0.0003

(* Each run starts on an empty minor heap and allocates less than it
   holds, so the loop never collects and never touches the program's
   heap. *)
let kernel () =
  let l = List.init 2_000 (fun i -> i * 7919 land 0xffff) in
  let h = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace h k (k, k)) l;
  ignore (Sys.opaque_identity (List.sort compare l, h))

(* CPU time, user and system, this process has used so far *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* While set, each calibration point also appends [probe_bytes] to this
   file and forces it to disk, three times, as the log does at a
   commit. *)
let probe_fd : Unix.file_descr option ref = ref None
let probe_bytes = Bytes.make 1024 'p'

let probe_fsync fd =
  let runs =
    List.init 3 (fun _ ->
        let t0 = now () in
        ignore (Unix.write fd probe_bytes 0 (Bytes.length probe_bytes));
        Unix.fsync fd;
        now () -. t0)
  in
  List.nth (List.sort compare runs) 1

type mark = {
  start : float;
  stop : float;
  loop_s : float;  (* median loop time *)
  fsync_s : float;  (* median probe time, or nan *)
  cpu_s : float;  (* CPU time the calibration point used *)
}

(* calibration points in time order *)
let marks : mark array ref = ref [||]
let n_marks = ref 0

(* words the calibration allocated, left out of the gc metrics *)
let calib_words = ref 0.0

let calibrating = ref false

let calibrate () =
  if not !calibrating then begin
  calibrating := true;
  let start = now () and c0 = cpu () and w0 = Gc.minor_words () in
  let runs =
    List.init 5 (fun _ ->
        Gc.minor ();
        let t0 = now () in
        kernel ();
        now () -. t0)
  in
  let loop_s = List.nth (List.sort compare runs) 2 in
  let fsync_s = match !probe_fd with Some fd -> probe_fsync fd | None -> Float.nan in
  let m = { start; stop = now (); loop_s; fsync_s; cpu_s = cpu () -. c0 } in
  if !n_marks = Array.length !marks then marks := Array.append !marks (Array.make (max 64 !n_marks) m);
  !marks.(!n_marks) <- m;
  incr n_marks;
  calib_words := !calib_words +. (Gc.minor_words () -. w0);
  calibrating := false
  end

(* [f ()], with a calibration point every 50 ms while it runs: for a
   long call into the program that makes no system call (the oracle, the
   certifier on one worker, a replay from an in-memory log), so that the
   timer's signal interrupts none. *)
let calibrated f =
  let tick = { Unix.it_interval = 0.05; it_value = 0.05 } in
  let off = { Unix.it_interval = 0.0; it_value = 0.0 } in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> calibrate ())) in
  ignore (Unix.setitimer Unix.ITIMER_REAL tick);
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL off);
      Sys.set_signal Sys.sigalrm old)
    f

let reset_marks () =
  marks := [||];
  n_marks := 0

(* the first calibration point starting at or after [t] *)
let first_from t =
  let lo = ref 0 and hi = ref !n_marks in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if !marks.(mid).start < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* The calibration points inside an interval, and those next to it: the
   ones inside and the nearest one on each side. *)
let inside (t0, t1) = (first_from t0, first_from t1)
let around (t0, t1) = (max 0 (first_from t0 - 1), min (!n_marks - 1) (first_from t1))

let mean_over (lo, hi) f =
  let sum = ref 0.0 and n = ref 0 in
  for m = lo to hi do
    let v = f !marks.(m) in
    if not (Float.is_nan v) then begin
      sum := !sum +. v;
      incr n
    end
  done;
  if !n = 0 then Float.nan else !sum /. float_of_int !n

(* The speed factor over an interval: [ref_kernel_s] over the mean loop
   time of the calibration points next to it. *)
let speed iv = if !n_marks = 0 then 1.0 else ref_kernel_s /. mean_over (around iv) (fun m -> m.loop_s)

(* The interval's wall time at the box's quiet speed, less the
   calibration inside it.  An interval spent waiting on a child process
   ([scaled_beside]) keeps its calibration time, which ran beside the
   child. *)
let scale ~concurrent ((t0, t1) as iv) =
  let pause = ref 0.0 in
  if not concurrent then begin
    let i, j = inside iv in
    for m = i to j - 1 do
      pause := !pause +. (Float.min !marks.(m).stop t1 -. !marks.(m).start)
    done
  end;
  (t1 -. t0 -. !pause) *. speed iv

(* [f ()] and the interval it took *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, (t0, now ()))

let scaled iv = scale ~concurrent:false iv
let scaled_beside iv = scale ~concurrent:true iv

(* An interval of serve-durable, which forces its log at every commit,
   with the process's CPU time [(c0, c1)] and the number of log forces
   [fsyncs] the program made in it.  The wall time of such an interval
   is CPU time, disk waits, and time the process was ready to run while
   another tenant held the CPU; on this box the last varied from 0.2 s to
   1.9 s in the same 3.3 s of work.  So the figure is the CPU time, less
   the calibration's, at the box's quiet speed, plus [fsyncs] times the
   fsync time the probe measured next to the interval. *)
let scaled_disk iv (c0, c1) ~fsyncs =
  if !n_marks = 0 then c1 -. c0
  else begin
    let i, j = inside iv in
    let pause = ref 0.0 in
    for m = i to j - 1 do
      pause := !pause +. !marks.(m).cpu_s
    done;
    let fsync_s = mean_over (around iv) (fun m -> m.fsync_s) in
    let disk = if Float.is_nan fsync_s then 0.0 else float_of_int fsyncs *. fsync_s in
    (Float.max 0.0 (c1 -. c0 -. !pause) *. speed iv) +. disk
  end

(* Median loop time of the pass so far, in ms: how fast the box ran. *)
let kernel_ms () =
  if !n_marks = 0 then 0.0
  else begin
    let a = Array.init !n_marks (fun m -> !marks.(m).loop_s) in
    Array.sort compare a;
    1000.0 *. a.(!n_marks / 2)
  end

(* Wait for a child process, calibrating beside it. *)
let wait_child pid =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        calibrate ();
        Unix.sleepf 0.02;
        go ()
    | _, status -> status
  in
  go ()

(* -- spans ------------------------------------------------------------------

   A span covers one call into a layer, timed from the benchmark's side.
   Synchronous spans nest on the benchmark's single thread: a span opened
   while another is open is its child, and a layer's self time is its
   spans' time minus the time of their direct children.  Asynchronous
   spans (a client request in flight while the server steps) overlap
   the synchronous ones and carry only their transaction id; they are
   written out but take no part in self time.  Spans stay in memory until
   the run ends. *)

type span = {
  id : int;
  parent : int;  (* -1 at the top *)
  layer : string;
  name : string;
  txn : int;  (* transaction id, or -1 *)
  t0 : float;
  t1 : float;
  disk : ((float * float) * int) option;  (* see [span] *)
  sync : bool;
}

let tracing = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let parent () = match !stack with p :: _ -> p | [] -> -1

(* [~fsyncs] for a call that may force the log, the number of log
   forces so far: the span then keeps the CPU time and the forces at
   both ends, and its time is taken as [scaled_disk] takes it. *)
let span ?(txn = -1) ?fsyncs ~layer name f =
  if not !tracing then f ()
  else begin
    let id = fresh_id () in
    let parent = parent () in
    stack := id :: !stack;
    let at_start = Option.map (fun n -> (cpu (), n ())) fsyncs in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let disk =
        match (at_start, fsyncs) with
        | Some (c0, f0), Some n -> Some ((c0, cpu ()), n () - f0)
        | _ -> None
      in
      stack := List.tl !stack;
      spans := { id; parent; layer; name; txn; t0; t1; disk; sync = true } :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let async_span ~txn ~layer name ~t0 ~t1 =
  if !tracing then
    spans :=
      { id = fresh_id (); parent = parent (); layer; name; txn; t0; t1;
        disk = None; sync = false }
      :: !spans

let reset_spans () =
  spans := [];
  stack := [];
  next_id := 0

(* A span's time, scaled like every other time *)
let span_time s =
  match s.disk with
  | Some (c, fsyncs) -> scaled_disk (s.t0, s.t1) c ~fsyncs
  | None -> scaled (s.t0, s.t1)

(* Self time per layer, over synchronous spans. *)
let self_times () =
  let sync = List.filter (fun s -> s.sync) !spans in
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((try Hashtbl.find child_time s.parent with Not_found -> 0.0)
          +. span_time s))
    sync;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own =
        span_time s
        -. (try Hashtbl.find child_time s.id with Not_found -> 0.0)
      in
      Hashtbl.replace by_layer s.layer
        ((try Hashtbl.find by_layer s.layer with Not_found -> 0.0) +. own))
    sync;
  by_layer

(* Total scaled duration of the spans with the given name. *)
let span_total name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. span_time s else acc)
    0.0 !spans

(* The oracle's verdict on a history, in its three spanned steps:
   together they are [Serializability.check]. *)
let decide ~round h =
  let open Ooser_core in
  let ext =
    span ~txn:round ~layer:"oracle" "Extension.extend" (fun () -> Extension.extend h)
  in
  let sched =
    span ~txn:round ~layer:"oracle" "Schedule.compute" (fun () -> Schedule.compute ~ext h)
  in
  span ~txn:round ~layer:"oracle" "Serializability.check_schedule" (fun () ->
      Serializability.check_schedule sched)

let write_spans path =
  let oc = open_out path in
  output_string oc "id\tparent\tlayer\tname\ttxn\tsync\tstart_s\tend_s\n";
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans in
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%s\t%d\t%b\t%.9f\t%.9f\n" s.id s.parent
        s.layer s.name s.txn s.sync (s.t0 -. base) (s.t1 -. base))
    (List.rev !spans);
  close_out oc

(* -- statistics over raw samples -------------------------------------------- *)

(* Linear interpolation between closest ranks, on a copy of the samples. *)
let quantile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median samples = quantile samples 0.5
let sum = List.fold_left ( +. ) 0.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Per-unit time of the last tenth of a run over the first tenth, from
   the completion times of its units (commits or waves) in order. *)
let late_over_early ~start stamps =
  let a = Array.of_list stamps in
  let n = Array.length a in
  let k = max 1 (n / 10) in
  if n < 2 * k then 0.0
  else scaled (a.(n - 1 - k), a.(n - 1)) /. scaled (start, a.(k - 1))

(* -- heap ------------------------------------------------------------------- *)

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Live heap after a full major collection; the caller keeps the system
   reachable across the call. *)
let live_heap_mb () =
  Gc.full_major ();
  mb_of_words (Gc.stat ()).Gc.live_words

let peak_heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words

type gc_mark = { minor_words : float; major_collections : int }

(* The program's minor allocation so far: the calibration's is left out.
   The minor collections the calibration forces are not. *)
let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words -. !calib_words;
    major_collections = s.Gc.major_collections;
  }

let gc_since m ~units =
  let s = gc_mark () in
  let minor_mb =
    (s.minor_words -. m.minor_words) *. float_of_int (Sys.word_size / 8) /. 1e6
  in
  [
    ("gc.minor_mb_per_commit", minor_mb /. float_of_int (max 1 units), "MB");
    ( "gc.major_collections",
      float_of_int (s.major_collections - m.major_collections),
      "count" );
  ]

(* -- checks ----------------------------------------------------------------- *)

let correct = ref true

let check what ok =
  if not ok then begin
    correct := false;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* -- files ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* -- inputs -------------------------------------------------------------------

   Where the cost of a run depends strongly on its schedule or its
   history (the engine rounds of enc-contended, the oracle of bank-occ,
   the recorded history serve-durable certifies, the larger histories of
   audit), averaging enough of them for a steady figure would take
   minutes.  Those inputs come from [structure_seed], the same in every
   run, so that every run does the same work and only time varies.
   --seed sets the rest: the six hex digits [tag] appended to every key
   enc-contended and serve-durable insert (all tags have one length and
   keep the keys in the same order, so no decision depends on them), the
   amounts bank-occ transfers (no balance comes near a bound, so no
   decision depends on them either), and the two hundred small histories
   audit certifies, whose cost averages out. *)

let structure_seed = 20260

let tag ~seed = Printf.sprintf "%06x" (Ooser_sim.Rng.int (Ooser_sim.Rng.create ~seed) 0x1000000)

(* -- one pass of a workload -------------------------------------------------- *)

type metric = string * float * string  (* name, value, unit *)

type pass = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;  (* counters and times read during the pass *)
  timed_s : float;  (* wall time of the timed phase *)
}

type env = {
  seed : int;
  seconds : int;
  dir : string;  (* working directory of this pass, inside the checkout *)
}
