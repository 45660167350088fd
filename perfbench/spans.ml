(* In-memory spans recorded by the benchmark around its calls into each
   layer of the system. A span has a name, the layer it times, start and
   end (monotonic ns), the span that caused it and a request id. Each
   recording thread owns a buffer, so recording takes no lock; buffers
   are registered once and read after the threads have quiesced.

   Recording is off unless [enable] was called: a disabled [with_span]
   reads no clock and allocates nothing, so the untraced run pays one
   atomic load per call site. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  name : string;
  layer : string;
  req : int;  (** request id, 0 when the span serves no single request *)
  t0 : int;
  t1 : int;
}

type buf = { mutable spans : span list }

let on = Atomic.make false

let next_id = Atomic.make 1

let registry : buf list ref = ref []

let registry_lock = Mutex.create ()

let enable () = Atomic.set on true

let buffer () =
  let b = { spans = [] } in
  Mutex.lock registry_lock;
  registry := b :: !registry;
  Mutex.unlock registry_lock;
  b

let now () = Int64.to_int (Sync_platform.Clock.now_ns ())

(* Run [f id] inside a span; [id] is the span's id (0 when recording is
   off), to be passed as [~parent] to nested spans. *)
let with_span b ?(parent = 0) ?(req = 0) ~layer name f =
  if not (Atomic.get on) then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let t0 = now () in
    let record () =
      b.spans <- { id; parent; name; layer; req; t0; t1 = now () } :: b.spans
    in
    match f id with
    | v ->
      record ();
      v
    | exception e ->
      record ();
      raise e
  end

let all () =
  Mutex.lock registry_lock;
  let bufs = !registry in
  Mutex.unlock registry_lock;
  List.concat_map (fun b -> b.spans) bufs

(* Self time summed per layer: each span's duration minus the part of
   its interval its children cover. *)
let self_by_layer spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        Stats.self_time ~lo:s.t0 ~hi:s.t1
          ~children:(Hashtbl.find_all children s.id)
      in
      let prev = Option.value (Hashtbl.find_opt acc s.layer) ~default:0 in
      Hashtbl.replace acc s.layer (prev + self))
    spans;
  Hashtbl.fold (fun layer ns l -> (layer, ns) :: l) acc []
  |> List.sort compare

(* One JSON object per line. Names are the benchmark's own ASCII
   labels, for which OCaml's %S quoting is JSON's. *)
let write_file path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"layer\":%S,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.parent s.name s.layer s.req s.t0 s.t1)
    (List.sort (fun a b -> compare a.t0 b.t0) spans);
  close_out oc
