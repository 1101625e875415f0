(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed from outside: its name, host
   start and end, the span that caused it and the operation it serves.
   Spans are kept in memory and written out once, when the run ends, so
   recording costs two clock reads and one allocation per span. The
   recorder also reads the host allocation counter at each boundary,
   which gives allocated words per phase. *)

type span = {
  name : string;
  op : int;  (** operation id (query session or write call); -1 for none *)
  parent : int;  (** index of the parent span; -1 for a root *)
  start_s : float;
  stop_s : float;
  words : float;  (** host words allocated inside the span *)
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable open_root : int;
}

let now () = Unix.gettimeofday ()
(* Words allocated by the program so far (minor + major, promotions
   counted once). Deterministic for one compiler and one input. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let create () = { spans = [||]; len = 0; open_root = -1 }

let push t s =
  if t.len = Array.length t.spans then begin
    let grown = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 grown 0 t.len;
    t.spans <- grown
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

(* [root t name] opens the span every later [record] hangs under until
   [close_root]. *)
let root t name =
  let i =
    push t { name; op = -1; parent = -1; start_s = now (); stop_s = nan;
             words = words () }
  in
  t.open_root <- i

let close_root t =
  if t.open_root >= 0 then begin
    let s = t.spans.(t.open_root) in
    t.spans.(t.open_root) <- { s with stop_s = now (); words = words () -. s.words };
    t.open_root <- -1
  end

let record t ~name ~op f =
  let w0 = words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = words () in
  ignore
    (push t { name; op; parent = t.open_root; start_s = t0; stop_s = t1;
              words = w1 -. w0 });
  r

let iter t f =
  for i = 0 to t.len - 1 do
    f t.spans.(i)
  done

(* Self time of every span: its duration minus the part its children
   cover. Children of one parent never overlap (one thread), so the
   covered part is the sum of their durations. *)
let self_times t =
  let self = Array.init t.len (fun i -> t.spans.(i).stop_s -. t.spans.(i).start_s) in
  iter t (fun s ->
    if s.parent >= 0 then
      self.(s.parent) <- self.(s.parent) -. (s.stop_s -. s.start_s));
  self

(* Self time of the root spans: the run loop's host time outside every
   call into a layer (answer checks, reference upkeep, bookkeeping). *)
let root_self_s t =
  let self = self_times t in
  let acc = ref 0. in
  for i = 0 to t.len - 1 do
    if t.spans.(i).parent < 0 then acc := !acc +. self.(i)
  done;
  !acc

type layer = { count : int; total_s : float; alloc_words : float }

let no_layer = { count = 0; total_s = 0.; alloc_words = 0. }

(* Per span name: call count, host seconds and words allocated. *)
let by_name t =
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let l = Option.value (Hashtbl.find_opt tbl s.name) ~default:no_layer in
    Hashtbl.replace tbl s.name
      { count = l.count + 1;
        total_s = l.total_s +. (s.stop_s -. s.start_s);
        alloc_words = l.alloc_words +. s.words }
  done;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:no_layer

(* One line per span, times in microseconds from the first span. *)
let write t path =
  let origin = if t.len > 0 then t.spans.(0).start_s else 0. in
  let self = self_times t in
  let oc = open_out path in
  output_string oc "index\tparent\top\tname\tstart_us\tstop_us\tself_us\talloc_words\n";
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%.1f\t%.1f\t%.1f\t%.0f\n" i s.parent s.op
      s.name ((s.start_s -. origin) *. 1e6) ((s.stop_s -. origin) *. 1e6)
      (self.(i) *. 1e6) s.words
  done;
  close_out oc
