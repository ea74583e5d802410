(* The benchmark's entry point:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload in this process and prints, as the last line of
   standard output, one JSON object with [correct], [attempted],
   [failed] and [metrics].  With --trace 0 the metrics are the
   end-to-end ones, measured with tracing off.  With --trace 1 the
   workload runs twice with the same inputs, first untraced and then
   with spans recorded around each call into a layer; the metrics are
   the per-layer ones of the traced pass, each layer's self time, and
   the tracing overhead against the untraced pass.  The spans are
   written to .bench_out/ at the end of the run. *)

open Common

let workloads =
  [
    ("enc-contended", Enc_contended.run);
    ("serve-durable", Serve_durable.run);
    ("audit", Audit.run);
    ("bank-occ", Bank_occ.run);
  ]

(* The per-layer metrics, as BENCHMARK.json lists them.  A traced run
   prints all of them; a layer the workload does not go through reads 0. *)
let layers =
  [
    ("engine.busy_s", "s");
    ("engine.steps_per_commit", "count");
    ("engine.attempts_per_commit", "count");
    ("engine.waits_per_commit", "count");
    ("engine.late_over_early", "ratio");
    ("lock.requests_per_commit", "count");
    ("lock.probes_per_grant", "count");
    ("lock.conflicts_per_commit", "count");
    ("oracle.extend_s", "s");
    ("oracle.compute_s", "s");
    ("oracle.verdicts_s", "s");
    ("certify.load_s", "s");
    ("certify.segment_s", "s");
    ("certify.stitch_s", "s");
    ("certify.act_edges", "count");
    ("occ.validations_per_commit", "count");
    ("occ.aborts_per_commit", "count");
    ("occ.probes_per_validation", "count");
    ("occ.versions_retained", "count");
    ("server.step_s", "s");
    ("wire.call_p50_ms", "ms");
    ("wire.bytes_per_commit", "bytes");
    ("oplog.forces_per_commit", "count");
    ("oplog.appends_per_commit", "count");
    ("oplog.bytes_per_commit", "bytes");
    ("recovery.replay_s", "s");
    ("gc.minor_mb_per_commit", "MB");
    ("gc.major_collections", "count");
    ("self.workload_s", "s");
    ("self.engine_s", "s");
    ("self.oracle_s", "s");
    ("self.certify_s", "s");
    ("self.server_s", "s");
    ("self.wire_s", "s");
    ("self.recovery_s", "s");
    ("trace.overhead_pct", "%");
    ("machine.kernel_ms", "ms");
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string v;
        go rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  match List.assoc_opt !workload workloads with
  | Some run -> (!workload, run, !seed, !seconds, !trace = 1)
  | None -> usage ()

let pass_dir name =
  let d = Printf.sprintf ".bench_run/%s-%d" name (Unix.getpid ()) in
  rm_rf d;
  mkdir_p d;
  d

let run_pass ~name ~traced run env =
  let dir = pass_dir name in
  reset_spans ();
  reset_marks ();
  tracing := traced;
  let t0 = now () in
  let p =
    Fun.protect ~finally:(fun () -> tracing := false; rm_rf dir) (fun () ->
        run { env with dir })
  in
  let t1 = now () in
  Gc.compact ();
  (p, (t0, t1))

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let main () =
  let name, run, seed, seconds, traced = parse_args () in
  let env = { seed; seconds; dir = "" } in
  let p, metrics =
    if not traced then
      let p, _ = run_pass ~name ~traced:false run env in
      (p, p.e2e)
    else begin
      let plain, _ = run_pass ~name ~traced:false run env in
      let p, _ = run_pass ~name ~traced:true run env in
      let measured =
        Hashtbl.fold (fun layer s acc -> ("self." ^ layer ^ "_s", s) :: acc) (self_times ()) []
        @ List.map (fun (n, v, _) -> (n, v)) p.layers
        @ [
            ("trace.overhead_pct", 100.0 *. (p.timed_s -. plain.timed_s) /. plain.timed_s);
            ("machine.kernel_ms", kernel_ms ());
          ]
      in
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n layers) then failwith ("unlisted per-layer metric " ^ n))
        measured;
      mkdir_p ".bench_out";
      write_spans (Printf.sprintf ".bench_out/spans-%s-seed%d.tsv" name seed);
      ( p,
        List.map
          (fun (n, unit) -> (n, Option.value ~default:0.0 (List.assoc_opt n measured), unit))
          layers )
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct p.attempted p.failed
    (String.concat ", " (List.map json_metric metrics))

let () = main ()
