(* Doctors-on-duty roster: the write-skew object.

   State: [Pair (Str x, Str y)], the duty status of two doctors.
   [sign_off_x] reads the OTHER doctor's status and records the observed
   value while going off duty — the classic two-snapshot-readers-with-
   disjoint-writes shape folded into one object (the model checker's
   scenario language is straight-line, so the cross read must live
   inside the method).  [read_x]/[read_y] are pure reads. *)

open Ooser_core

let on_duty = Value.pair (Value.str "on") (Value.str "on")

let fields = function
  | Value.Pair (Value.Str x, Value.Str y) -> (x, y)
  | _ -> invalid_arg "Roster: malformed state"

let off saw = "off(saw " ^ saw ^ ")"
let state x y = Value.pair (Value.str x) (Value.str y)

(* sign_off_x reads y and writes x: it conflicts with itself, with the
   other sign-off (mutual field crossing), and with the read of its own
   field; every other pair commutes. *)
let spec =
  Commutativity.of_conflict_matrix ~name:"roster-occ"
    [
      ("sign_off_x", "sign_off_x");
      ("sign_off_y", "sign_off_y");
      ("sign_off_x", "sign_off_y");
      ("sign_off_x", "read_x");
      ("sign_off_y", "read_y");
    ]

let statuses = [ "on"; off "on"; off (off "on") ]

let adt =
  {
    Adt.name = "roster";
    methods =
      [
        Adt.read "read_x" Adt.Reads_all (fun st _ -> Value.str (fst (fields st)));
        Adt.read "read_y" Adt.Reads_all (fun st _ -> Value.str (snd (fields st)));
        Adt.update "sign_off_x" Adt.Writes_all ~vectors:[ [] ]
          ~inverse:(fun pre _ _ st -> state (fst (fields pre)) (snd (fields st)))
          (fun st _ ->
            let _, y = fields st in
            (state (off y) y, Value.unit));
        Adt.update "sign_off_y" Adt.Writes_all ~vectors:[ [] ]
          ~inverse:(fun pre _ _ st -> state (fst (fields st)) (snd (fields pre)))
          (fun st _ ->
            let x, _ = fields st in
            (state x (off x), Value.unit));
      ];
    vocab = [ "read_x"; "read_y"; "sign_off_x"; "sign_off_y" ];
    spec = (fun ~current:_ -> spec);
    observe = Fun.id;
    rebuild = (fun _ o -> o);
    states = [ on_duty; state (off "on") "on"; state "on" (off "on") ];
    gen_state =
      QCheck.Gen.(
        pair (oneofl statuses) (oneofl statuses) >|= fun (x, y) -> state x y);
  }
