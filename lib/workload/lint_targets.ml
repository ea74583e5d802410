(* Lint targets for the shipped workloads: registry + specs + static
   summaries per workload, ready for Ooser_analysis.Lint.run. *)

open Ooser_core
open Ooser_oodb
module Analysis = Ooser_analysis
module Rng = Ooser_sim.Rng

let object_infos db =
  List.filter_map
    (fun o ->
      Option.map
        (fun spec ->
          {
            Analysis.Spec_lint.obj = Obj_id.to_string o;
            spec;
            methods = Database.methods db o;
            compensated = Some (Database.compensated_methods db o);
          })
        (Database.spec db o))
    (Database.objects db)

let of_database ~name ?(summaries = []) db =
  Analysis.Lint.target ~name ~objects:(object_infos db) ~summaries
    (Database.spec_registry db)

let banking ?(semantics = `Escrow) ~seed () =
  let p = Banking.default_params in
  let db, _counters = Banking.setup ~semantics p in
  of_database ~name:"banking"
    ~summaries:(Banking.static_summaries ~rng:(Rng.create ~seed) p)
    db

let inventory ~seed () =
  let p = Inventory.default_params in
  let db = Database.create () in
  let t, _txns = Inventory.setup ~rng:(Rng.create ~seed) p db in
  of_database ~name:"inventory"
    ~summaries:(Inventory.static_summaries t ~rng:(Rng.create ~seed) p)
    db

let encyclopedia ~seed () =
  (* preload = 0: the analyzer needs the schema objects, not a populated
     tree, and lint must not run the engine *)
  let p = { Enc_workload.default_params with Enc_workload.preload = 0 } in
  let db, enc, _txns = Enc_workload.setup ~rng:(Rng.create ~seed) p in
  of_database ~name:"encyclopedia"
    ~summaries:(Enc_workload.static_summaries ~rng:(Rng.create ~seed) p enc)
    db

(* The semantic ADTs of lib/adts registered standalone: the primary
   spec-inference target — every object here has an executable model in
   Ooser_analysis.Semantics.  No summaries: the target is about the
   specs, not a workload. *)
let adts () =
  let db = Database.create () in
  let module A = Ooser_adts in
  ignore
    (Adt_objects.register_counter db (Obj_id.v "counter") ~low:0 ~high:100 50);
  List.iter
    (fun (name, adt, init) ->
      ignore (Adt_objects.register db (Obj_id.v name) adt init))
    [
      ("set", A.Kv_set.adt, A.Kv_set.empty);
      ("queue", A.Fifo.adt, A.Fifo.empty);
      ("dir", A.Directory.adt, A.Directory.empty);
      ("register", A.Register.adt, Value.int 0);
      ("roster", A.Roster.adt, A.Roster.on_duty);
    ];
  of_database ~name:"adts" db

let all ~seed () =
  [ banking ~seed (); inventory ~seed (); encyclopedia ~seed () ]
