(* Escrow counter (O'Neil; [9, 14, 17] in the paper).

   A bounded counter whose increments and decrements commute as long as
   the escrow test guarantees that both succeed in either order: the
   commutativity of two updates depends on the parameter values and the
   current state, which is exactly the refinement §2 attributes to the
   escrow method.  The banking vocabulary (deposit/withdraw/balance) is
   the same transitions under other names.

   State: [[low; high; value]]. *)

open Ooser_core

let init ?(low = min_int) ?(high = max_int) v =
  if v < low || v > high then
    invalid_arg "Escrow.init: initial value out of bounds";
  Value.list [ Value.int low; Value.int high; Value.int v ]

let decode = function
  | Value.List [ Value.Int low; Value.Int high; Value.Int v ] -> (low, high, v)
  | _ -> invalid_arg "Escrow: malformed state"

let value st =
  let _, _, v = decode st in
  v

(* [add st delta] raises when the bound would be crossed. *)
let add st delta =
  match st with
  | Value.List [ (Value.Int low as lo); (Value.Int high as hi); Value.Int v ] ->
      let v' = v + delta in
      if v' < low || v' > high then
        raise
          (Adt.Rejected
             (Printf.sprintf "escrow: %d%+d outside [%d, %d]" v delta low high));
      Value.List [ lo; hi; Value.Int v' ]
  | _ -> invalid_arg "Escrow: malformed state"

let amount = function
  | [ Value.Int n ] when n >= 0 -> n
  | _ -> invalid_arg "escrow: one non-negative amount expected"

(* Signed amount of an update action; [None] for reads and unknown
   methods. *)
let delta_of act =
  let n () =
    match Action.args act with v :: _ -> Value.to_int v | [] -> None
  in
  match Action.meth act with
  | "incr" | "deposit" -> n ()
  | "decr" | "withdraw" -> Option.map (fun n -> -n) (n ())
  | _ -> None

let is_read act =
  match Action.meth act with "read" | "balance" -> true | _ -> false

let vocab = [ "incr"; "decr"; "read"; "deposit"; "withdraw"; "balance" ]

(* Two updates commute when executing them in either order from the
   current state keeps every prefix within bounds; a read conflicts with
   every update and commutes with reads. *)
let spec ~current =
  Commutativity.predicate ~name:"escrow-counter" ~vocab (fun a b ->
      match (delta_of a, delta_of b) with
      | Some da, Some db ->
          let low, high, v = decode (current ()) in
          let ok x = x >= low && x <= high in
          ok (v + da) && ok (v + db) && ok (v + da + db)
      | None, None -> is_read a && is_read b
      | Some _, None | None, Some _ -> false)

let update name sign =
  Adt.update name Adt.Writes_all
    ~vectors:[ [ Value.int 1 ]; [ Value.int 2 ]; [ Value.int 3 ] ]
    ~inverse:(fun _ args _ st -> add st (-sign * amount args))
    (fun st args -> (add st (sign * amount args), Value.unit))

let read name = Adt.read name Adt.Reads_all (fun st _ -> Value.int (value st))

let adt =
  {
    Adt.name = "escrow-counter";
    methods =
      [
        update "incr" 1;
        update "decr" (-1);
        read "read";
        update "deposit" 1;
        update "withdraw" (-1);
        read "balance";
      ];
    vocab;
    spec;
    observe = (fun st -> Value.int (value st));
    rebuild =
      (fun st o ->
        match st with
        | Value.List [ lo; hi; _ ] -> Value.List [ lo; hi; o ]
        | _ -> invalid_arg "Escrow: malformed state");
    states =
      [
        init ~low:0 ~high:4 0;
        init ~low:0 ~high:4 1;
        init ~low:0 ~high:4 2;
        init ~low:0 ~high:4 3;
        init ~low:0 ~high:4 4;
        init ~low:0 ~high:8 4;
        init ~low:0 ~high:1000 500;
      ];
    gen_state =
      QCheck.Gen.(
        int_range 1 12 >>= fun high ->
        int_range 0 high >|= fun v -> init ~low:0 ~high v);
  }
