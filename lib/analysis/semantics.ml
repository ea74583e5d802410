(* Executable small-scope semantics for the shipped ADTs: the ground
   truth the spec-inference analyzer (infer.ml, DESIGN §16) compares
   hand-written commutativity matrices against.

   A model IS the ADT's one definition in lib/adts: an instance runs the
   very transitions the engine runs and undoes a call with the very
   inverse the engine's abort path applies, so a verdict here is about
   the code the engine executes by construction. *)

open Ooser_core
module Adt = Ooser_adts.Adt

type outcome = Ret of Value.t | Err of string

type call = { result : outcome; undo : unit -> outcome }

type instance = {
  hand : Commutativity.spec;
  exec : string -> Value.t list -> call;
  observe : unit -> Value.t;
}

type model = Adt.t

let guard f =
  try Ret (f ()) with
  | Adt.Rejected msg | Invalid_argument msg | Failure msg -> Err msg
  | Not_found -> Err "not found"

(* Undoing a call that never applied (errored) is a successful no-op. *)
let noop_undo () = Ret Value.unit

let instantiate (m : model) s =
  let st = ref s in
  let exec name args =
    match Adt.find_meth m name with
    | None ->
        { result = Err (Printf.sprintf "%s: no model for method %S" m.name name);
          undo = noop_undo;
        }
    | Some meth ->
        let pre = !st in
        let result =
          guard (fun () ->
              let st', r = meth.run pre args in
              st := st';
              r)
        in
        let undo () =
          match result with
          | Err _ -> noop_undo ()
          | Ret r ->
              guard (fun () ->
                  st := meth.inverse pre args r !st;
                  Value.unit)
        in
        { result; undo }
  in
  {
    hand = m.spec ~current:(fun () -> !st);
    exec;
    observe = (fun () -> m.observe !st);
  }

let all =
  Ooser_adts.
    [ Escrow.adt; Kv_set.adt; Fifo.adt; Directory.adt; Register.adt; Roster.adt ]

let for_spec spec =
  let n = Commutativity.name spec in
  List.find_opt (fun m -> String.equal (Adt.spec_name m) n) all

let footprint (m : model) meth =
  Option.map (fun (x : Adt.meth) -> x.footprint) (Adt.find_meth m meth)

let vectors (m : model) meth =
  match Adt.find_meth m meth with Some x -> x.vectors | None -> [ [] ]

(* ---------- the oracle ---------- *)

let outcome_equal o o' =
  match (o, o') with
  | Ret v, Ret v' -> Value.equal v v'
  | Err _, Err _ -> false (* conservative: errors never commute *)
  | _ -> false

let forward_at m s p q =
  let run (m1, a1) (m2, a2) =
    let i = instantiate m s in
    let c1 = i.exec m1 a1 in
    let c2 = i.exec m2 a2 in
    (c1.result, c2.result, i.observe ())
  in
  let p_first, q_second, obs_pq = run p q in
  let q_first, p_second, obs_qp = run q p in
  outcome_equal p_first p_second
  && outcome_equal q_first q_second
  && Value.equal obs_pq obs_qp

(* Run [first] then [second], undo [first]; the state must be exactly
   what [second] alone produces.  (With [undo_second = true], undo the
   SECOND call instead and compare against [first] alone.) *)
let abort_scenario m s ~undo_second first second =
  let i = instantiate m s in
  let c1 = i.exec (fst first) (snd first) in
  let c2 = i.exec (fst second) (snd second) in
  let victim, survivor = if undo_second then (c2, first) else (c1, second) in
  match (c1.result, c2.result) with
  | Ret _, Ret _ -> (
      match victim.undo () with
      | Err _ -> false
      | Ret _ -> (
          let j = instantiate m s in
          let cs = j.exec (fst survivor) (snd survivor) in
          match cs.result with
          | Ret _ -> Value.equal (i.observe ()) (j.observe ())
          | Err _ -> false))
  | _ -> false

let commute_at m s p q =
  forward_at m s p q
  && abort_scenario m s ~undo_second:false p q
  && abort_scenario m s ~undo_second:true p q
  && abort_scenario m s ~undo_second:false q p
  && abort_scenario m s ~undo_second:true q p
