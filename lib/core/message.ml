open Openmb_wire
open Openmb_net

type op_id = int

type request =
  | Get_config of Config_tree.path
  | Set_config of Config_tree.path * Json.t list
  | Del_config of Config_tree.path
  | Get_support_perflow of Hfl.t
  | Put_support_perflow of { seq : int; chunk : Chunk.t }
  | Del_support_perflow of Hfl.t
  | Get_support_shared
  | Put_support_shared of { seq : int; chunk : Chunk.t }
  | Get_report_perflow of Hfl.t
  | Put_report_perflow of { seq : int; chunk : Chunk.t }
  | Del_report_perflow of Hfl.t
  | Get_report_shared
  | Put_report_shared of { seq : int; chunk : Chunk.t }
  | Get_stats of Hfl.t
  | Enable_events of { codes : string list; key : Hfl.t }
  | Disable_events of { codes : string list }
  | Reprocess_packet of { key : Hfl.t; packet : Packet.t }
  | Put_batch of { seq : int; chunks : Chunk.t list }
  | Abort_perflow of Hfl.t

type reply =
  | State_chunk of Chunk.t
  | End_of_state of { count : int }
  | Ack
  | Config_values of Config_tree.entry list
  | Stats_reply of Southbound.stats
  | Op_error of Errors.t
  | Batch_ack of { seq : int; count : int; errors : (int * Errors.t) list }

type to_mb = { op : op_id; tid : int; req : request }

type from_mb = Reply of { op : op_id; reply : reply } | Event_msg of Event.t

(* ------------------------------------------------------------------ *)
(* JSON encodings                                                      *)
(* ------------------------------------------------------------------ *)

let hfl_to_json hfl = Json.String (Hfl.to_string hfl)
let hfl_of_json j = Hfl.of_string (Json.get_string j)
let path_to_json p = Json.String (Config_tree.path_to_string p)
let path_of_json j = Config_tree.path_of_string (Json.get_string j)

let chunk_to_json (c : Chunk.t) =
  Json.Assoc
    [
      ("kind", Json.String c.mb_kind);
      ("role", Json.String (Taxonomy.role_to_string c.role));
      ("partition", Json.String (Taxonomy.partition_to_string c.partition));
      ("key", hfl_to_json c.key);
      ("cipher", Json.String c.cipher);
    ]

let chunk_of_json j : Chunk.t =
  {
    mb_kind = Json.get_string (Json.member "kind" j);
    role = Taxonomy.role_of_string (Json.get_string (Json.member "role" j));
    partition =
      Taxonomy.partition_of_string (Json.get_string (Json.member "partition" j));
    key = hfl_of_json (Json.member "key" j);
    cipher = Json.get_string (Json.member "cipher" j);
  }

let flags_to_json (f : Packet.tcp_flags) =
  Json.Assoc
    [
      ("syn", Json.Bool f.syn);
      ("ack", Json.Bool f.ack);
      ("fin", Json.Bool f.fin);
      ("rst", Json.Bool f.rst);
    ]

let flags_of_json j : Packet.tcp_flags =
  {
    syn = Json.get_bool (Json.member "syn" j);
    ack = Json.get_bool (Json.member "ack" j);
    fin = Json.get_bool (Json.member "fin" j);
    rst = Json.get_bool (Json.member "rst" j);
  }

let app_to_json = function
  | Packet.Plain -> Json.Null
  | Packet.Http_request { method_; host; uri } ->
    Json.Assoc
      [
        ("t", Json.String "req");
        ("method", Json.String method_);
        ("host", Json.String host);
        ("uri", Json.String uri);
      ]
  | Packet.Http_response { status } ->
    Json.Assoc [ ("t", Json.String "resp"); ("status", Json.Int status) ]

let app_of_json = function
  | Json.Null -> Packet.Plain
  | j -> (
    match Json.get_string (Json.member "t" j) with
    | "req" ->
      Packet.Http_request
        {
          method_ = Json.get_string (Json.member "method" j);
          host = Json.get_string (Json.member "host" j);
          uri = Json.get_string (Json.member "uri" j);
        }
    | "resp" -> Packet.Http_response { status = Json.get_int (Json.member "status" j) }
    | s -> invalid_arg (Printf.sprintf "Message.app_of_json: %S" s))

let payload_to_json p =
  Json.Assoc
    [
      ("tokens", Json.List (Array.to_list (Array.map (fun t -> Json.Int t) (Payload.tokens p))));
      ("trailing", Json.Int (Payload.size_bytes p mod Payload.token_bytes));
    ]

let payload_of_json j =
  let tokens =
    Array.of_list (List.map Json.get_int (Json.get_list (Json.member "tokens" j)))
  in
  let trailing = Json.get_int (Json.member "trailing" j) in
  Payload.of_tokens_trailing tokens ~trailing

let segment_to_json = function
  | Packet.Literal p -> Json.Assoc [ ("t", Json.String "lit"); ("payload", payload_to_json p) ]
  | Packet.Shim { offset; len } ->
    Json.Assoc
      [ ("t", Json.String "shim"); ("offset", Json.Int offset); ("len", Json.Int len) ]

let segment_of_json j =
  match Json.get_string (Json.member "t" j) with
  | "lit" -> Packet.Literal (payload_of_json (Json.member "payload" j))
  | "shim" ->
    Packet.Shim
      { offset = Json.get_int (Json.member "offset" j); len = Json.get_int (Json.member "len" j) }
  | s -> invalid_arg (Printf.sprintf "Message.segment_of_json: %S" s)

let body_to_json = function
  | Packet.Raw p -> Json.Assoc [ ("t", Json.String "raw"); ("payload", payload_to_json p) ]
  | Packet.Encoded { cache_id; append_base; segments; orig } ->
    Json.Assoc
      [
        ("t", Json.String "enc");
        ("cache", Json.Int cache_id);
        ("base", Json.Int append_base);
        ("segments", Json.List (List.map segment_to_json segments));
        ("orig", payload_to_json orig);
      ]

let body_of_json j =
  match Json.get_string (Json.member "t" j) with
  | "raw" -> Packet.Raw (payload_of_json (Json.member "payload" j))
  | "enc" ->
    Packet.Encoded
      {
        cache_id = Json.get_int (Json.member "cache" j);
        append_base = Json.get_int (Json.member "base" j);
        segments = List.map segment_of_json (Json.get_list (Json.member "segments" j));
        orig = payload_of_json (Json.member "orig" j);
      }
  | s -> invalid_arg (Printf.sprintf "Message.body_of_json: %S" s)

let packet_to_json (p : Packet.t) =
  Json.Assoc
    [
      ("id", Json.Int p.id);
      ("ts", Json.Float (Openmb_sim.Time.to_seconds p.ts));
      ("src_ip", Json.String (Addr.to_string p.src_ip));
      ("dst_ip", Json.String (Addr.to_string p.dst_ip));
      ("src_port", Json.Int p.src_port);
      ("dst_port", Json.Int p.dst_port);
      ("proto", Json.String (Packet.proto_to_string p.proto));
      ("flags", flags_to_json p.flags);
      ("app", app_to_json p.app);
      ("body", body_to_json p.body);
    ]

let packet_of_json j : Packet.t =
  {
    id = Json.get_int (Json.member "id" j);
    ts = Openmb_sim.Time.seconds (Json.get_float (Json.member "ts" j));
    src_ip = Addr.of_string (Json.get_string (Json.member "src_ip" j));
    dst_ip = Addr.of_string (Json.get_string (Json.member "dst_ip" j));
    src_port = Json.get_int (Json.member "src_port" j);
    dst_port = Json.get_int (Json.member "dst_port" j);
    proto = Packet.proto_of_string (Json.get_string (Json.member "proto" j));
    flags = flags_of_json (Json.member "flags" j);
    app = app_of_json (Json.member "app" j);
    body = body_of_json (Json.member "body" j);
  }

let request_body_to_json = function
  | Get_config p -> ("getConfig", [ ("key", path_to_json p) ])
  | Set_config (p, vs) -> ("setConfig", [ ("key", path_to_json p); ("values", Json.List vs) ])
  | Del_config p -> ("delConfig", [ ("key", path_to_json p) ])
  | Get_support_perflow h -> ("getSupportPerflow", [ ("key", hfl_to_json h) ])
  | Put_support_perflow { seq; chunk } ->
    ("putSupportPerflow", [ ("seq", Json.Int seq); ("chunk", chunk_to_json chunk) ])
  | Del_support_perflow h -> ("delSupportPerflow", [ ("key", hfl_to_json h) ])
  | Get_support_shared -> ("getSupportShared", [])
  | Put_support_shared { seq; chunk } ->
    ("putSupportShared", [ ("seq", Json.Int seq); ("chunk", chunk_to_json chunk) ])
  | Get_report_perflow h -> ("getReportPerflow", [ ("key", hfl_to_json h) ])
  | Put_report_perflow { seq; chunk } ->
    ("putReportPerflow", [ ("seq", Json.Int seq); ("chunk", chunk_to_json chunk) ])
  | Del_report_perflow h -> ("delReportPerflow", [ ("key", hfl_to_json h) ])
  | Get_report_shared -> ("getReportShared", [])
  | Put_report_shared { seq; chunk } ->
    ("putReportShared", [ ("seq", Json.Int seq); ("chunk", chunk_to_json chunk) ])
  | Get_stats h -> ("getStats", [ ("key", hfl_to_json h) ])
  | Enable_events { codes; key } ->
    ( "enableEvents",
      [
        ("codes", Json.List (List.map (fun c -> Json.String c) codes));
        ("key", hfl_to_json key);
      ] )
  | Disable_events { codes } ->
    ("disableEvents", [ ("codes", Json.List (List.map (fun c -> Json.String c) codes)) ])
  | Reprocess_packet { key; packet } ->
    ("reprocessPacket", [ ("key", hfl_to_json key); ("packet", packet_to_json packet) ])
  | Put_batch { seq; chunks } ->
    ( "putBatch",
      [ ("seq", Json.Int seq); ("chunks", Json.List (List.map chunk_to_json chunks)) ] )
  | Abort_perflow h -> ("abortPerflow", [ ("key", hfl_to_json h) ])

let request_to_json { op; tid; req } =
  let name, fields = request_body_to_json req in
  (* The trace id is omitted when absent so untraced runs produce the
     original (pre-telemetry) JSON byte-for-byte. *)
  let fields = if tid = 0 then fields else ("tid", Json.Int tid) :: fields in
  Json.Assoc (("op", Json.Int op) :: ("type", Json.String name) :: fields)

let request_of_json j =
  let op = Json.get_int (Json.member "op" j) in
  let tid = match Json.member "tid" j with Json.Null -> 0 | v -> Json.get_int v in
  let key_field () = Json.member "key" j in
  let seq_field () = Json.get_int (Json.member "seq" j) in
  let chunk_field () = chunk_of_json (Json.member "chunk" j) in
  let req =
    match Json.get_string (Json.member "type" j) with
    | "getConfig" -> Get_config (path_of_json (key_field ()))
    | "setConfig" ->
      Set_config (path_of_json (key_field ()), Json.get_list (Json.member "values" j))
    | "delConfig" -> Del_config (path_of_json (key_field ()))
    | "getSupportPerflow" -> Get_support_perflow (hfl_of_json (key_field ()))
    | "putSupportPerflow" -> Put_support_perflow { seq = seq_field (); chunk = chunk_field () }
    | "delSupportPerflow" -> Del_support_perflow (hfl_of_json (key_field ()))
    | "getSupportShared" -> Get_support_shared
    | "putSupportShared" -> Put_support_shared { seq = seq_field (); chunk = chunk_field () }
    | "getReportPerflow" -> Get_report_perflow (hfl_of_json (key_field ()))
    | "putReportPerflow" -> Put_report_perflow { seq = seq_field (); chunk = chunk_field () }
    | "delReportPerflow" -> Del_report_perflow (hfl_of_json (key_field ()))
    | "getReportShared" -> Get_report_shared
    | "putReportShared" -> Put_report_shared { seq = seq_field (); chunk = chunk_field () }
    | "getStats" -> Get_stats (hfl_of_json (key_field ()))
    | "enableEvents" ->
      Enable_events
        {
          codes = List.map Json.get_string (Json.get_list (Json.member "codes" j));
          key = hfl_of_json (key_field ());
        }
    | "disableEvents" ->
      Disable_events
        { codes = List.map Json.get_string (Json.get_list (Json.member "codes" j)) }
    | "reprocessPacket" ->
      Reprocess_packet
        { key = hfl_of_json (key_field ()); packet = packet_of_json (Json.member "packet" j) }
    | "putBatch" ->
      Put_batch
        {
          seq = seq_field ();
          chunks = List.map chunk_of_json (Json.get_list (Json.member "chunks" j));
        }
    | "abortPerflow" -> Abort_perflow (hfl_of_json (key_field ()))
    | s -> invalid_arg (Printf.sprintf "Message.request_of_json: unknown type %S" s)
  in
  { op; tid; req }

let stats_to_json (s : Southbound.stats) =
  Json.Assoc
    [
      ("pf_support_chunks", Json.Int s.perflow_support_chunks);
      ("pf_report_chunks", Json.Int s.perflow_report_chunks);
      ("pf_support_bytes", Json.Int s.perflow_support_bytes);
      ("pf_report_bytes", Json.Int s.perflow_report_bytes);
      ("sh_support_bytes", Json.Int s.shared_support_bytes);
      ("sh_report_bytes", Json.Int s.shared_report_bytes);
    ]

let stats_of_json j : Southbound.stats =
  {
    perflow_support_chunks = Json.get_int (Json.member "pf_support_chunks" j);
    perflow_report_chunks = Json.get_int (Json.member "pf_report_chunks" j);
    perflow_support_bytes = Json.get_int (Json.member "pf_support_bytes" j);
    perflow_report_bytes = Json.get_int (Json.member "pf_report_bytes" j);
    shared_support_bytes = Json.get_int (Json.member "sh_support_bytes" j);
    shared_report_bytes = Json.get_int (Json.member "sh_report_bytes" j);
  }

let error_to_json (e : Errors.t) =
  let code, arg =
    match e with
    | Granularity_too_fine -> ("granularity", "")
    | Unknown_mb s -> ("unknown_mb", s)
    | Unknown_config_key s -> ("unknown_config_key", s)
    | Illegal_operation s -> ("illegal_operation", s)
    | Bad_chunk s -> ("bad_chunk", s)
    | Op_failed s -> ("op_failed", s)
    | Timeout s -> ("timeout", s)
    | Move_aborted s -> ("move_aborted", s)
  in
  Json.Assoc [ ("code", Json.String code); ("arg", Json.String arg) ]

let error_of_json j : Errors.t =
  let arg = Json.get_string (Json.member "arg" j) in
  match Json.get_string (Json.member "code" j) with
  | "granularity" -> Granularity_too_fine
  | "unknown_mb" -> Unknown_mb arg
  | "unknown_config_key" -> Unknown_config_key arg
  | "illegal_operation" -> Illegal_operation arg
  | "bad_chunk" -> Bad_chunk arg
  | "op_failed" -> Op_failed arg
  | "timeout" -> Timeout arg
  | "move_aborted" -> Move_aborted arg
  | s -> invalid_arg (Printf.sprintf "Message.error_of_json: %S" s)

let entry_to_json (e : Config_tree.entry) =
  Json.Assoc
    [ ("key", Json.String (Config_tree.path_to_string e.path)); ("values", Json.List e.values) ]

let entry_of_json j : Config_tree.entry =
  {
    path = Config_tree.path_of_string (Json.get_string (Json.member "key" j));
    values = Json.get_list (Json.member "values" j);
  }

let reply_to_json = function
  | State_chunk c -> ("stateChunk", [ ("chunk", chunk_to_json c) ])
  | End_of_state { count } -> ("endOfState", [ ("count", Json.Int count) ])
  | Ack -> ("ack", [])
  | Config_values es -> ("configValues", [ ("entries", Json.List (List.map entry_to_json es)) ])
  | Stats_reply s -> ("stats", [ ("stats", stats_to_json s) ])
  | Op_error e -> ("error", [ ("error", error_to_json e) ])
  | Batch_ack { seq; count; errors } ->
    ( "batchAck",
      [
        ("seq", Json.Int seq);
        ("count", Json.Int count);
        ( "errors",
          Json.List
            (List.map
               (fun (i, e) ->
                 Json.Assoc [ ("i", Json.Int i); ("error", error_to_json e) ])
               errors) );
      ] )

let event_to_json = function
  | Event.Reprocess { key; packet } ->
    Json.Assoc
      [
        ("t", Json.String "reprocess");
        ("key", hfl_to_json key);
        ("packet", packet_to_json packet);
      ]
  | Event.Introspect { code; key; info } ->
    Json.Assoc
      [
        ("t", Json.String "introspect");
        ("code", Json.String code);
        ("key", hfl_to_json key);
        ("info", info);
      ]

let event_of_json j =
  match Json.get_string (Json.member "t" j) with
  | "reprocess" ->
    Event.Reprocess
      { key = hfl_of_json (Json.member "key" j); packet = packet_of_json (Json.member "packet" j) }
  | "introspect" ->
    Event.Introspect
      {
        code = Json.get_string (Json.member "code" j);
        key = hfl_of_json (Json.member "key" j);
        info = Json.member "info" j;
      }
  | s -> invalid_arg (Printf.sprintf "Message.event_of_json: %S" s)

let from_mb_to_json = function
  | Reply { op; reply } ->
    let name, fields = reply_to_json reply in
    Json.Assoc (("op", Json.Int op) :: ("type", Json.String name) :: fields)
  | Event_msg ev -> Json.Assoc [ ("type", Json.String "event"); ("event", event_to_json ev) ]

let from_mb_of_json j =
  match Json.get_string (Json.member "type" j) with
  | "event" -> Event_msg (event_of_json (Json.member "event" j))
  | name ->
    let op = Json.get_int (Json.member "op" j) in
    let reply =
      match name with
      | "stateChunk" -> State_chunk (chunk_of_json (Json.member "chunk" j))
      | "endOfState" -> End_of_state { count = Json.get_int (Json.member "count" j) }
      | "ack" -> Ack
      | "configValues" ->
        Config_values (List.map entry_of_json (Json.get_list (Json.member "entries" j)))
      | "stats" -> Stats_reply (stats_of_json (Json.member "stats" j))
      | "error" -> Op_error (error_of_json (Json.member "error" j))
      | "batchAck" ->
        Batch_ack
          {
            seq = Json.get_int (Json.member "seq" j);
            count = Json.get_int (Json.member "count" j);
            errors =
              List.map
                (fun ej ->
                  (Json.get_int (Json.member "i" ej), error_of_json (Json.member "error" ej)))
                (Json.get_list (Json.member "errors" j));
          }
      | s -> invalid_arg (Printf.sprintf "Message.from_mb_of_json: unknown type %S" s)
    in
    Reply { op; reply }

(* ------------------------------------------------------------------ *)
(* Binary encoding                                                     *)
(*                                                                     *)
(* Compact alternative to the JSON encoding, negotiated per channel    *)
(* (Framing.Binary).  Bodies start with a 0x42 tag so decoders can     *)
(* fall back to JSON for peers that never negotiated: JSON text starts *)
(* with '{'.  Writers go through a Binary.sink, so the exact wire size *)
(* is computable without materializing the bytes.                      *)
(* ------------------------------------------------------------------ *)

let binary_tag = 'B'

let proto_to_u8 = function Packet.Tcp -> 0 | Packet.Udp -> 1 | Packet.Icmp -> 2

let proto_of_u8 = function
  | 0 -> Packet.Tcp
  | 1 -> Packet.Udp
  | 2 -> Packet.Icmp
  | n -> raise (Binary.Decode_error (Printf.sprintf "Message: proto tag %d" n))

let bad_tag what n =
  raise (Binary.Decode_error (Printf.sprintf "Message: unknown %s tag %d" what n))

let w_hfl k hfl =
  Binary.uvarint k (List.length hfl);
  List.iter
    (fun f ->
      match f with
      | Hfl.Src_ip p ->
        Binary.u8 k 0;
        Binary.u32 k (Addr.to_int (Addr.prefix_base p));
        Binary.u8 k (Addr.prefix_len p)
      | Hfl.Dst_ip p ->
        Binary.u8 k 1;
        Binary.u32 k (Addr.to_int (Addr.prefix_base p));
        Binary.u8 k (Addr.prefix_len p)
      | Hfl.Src_port v ->
        Binary.u8 k 2;
        Binary.u16 k v
      | Hfl.Dst_port v ->
        Binary.u8 k 3;
        Binary.u16 k v
      | Hfl.Proto v ->
        Binary.u8 k 4;
        Binary.u8 k (proto_to_u8 v))
    hfl

let r_hfl r =
  let n = Binary.get_uvarint r in
  List.init n (fun _ ->
      match Binary.get_u8 r with
      | 0 ->
        let base = Binary.get_u32 r in
        Hfl.Src_ip (Addr.prefix (Addr.of_int base) (Binary.get_u8 r))
      | 1 ->
        let base = Binary.get_u32 r in
        Hfl.Dst_ip (Addr.prefix (Addr.of_int base) (Binary.get_u8 r))
      | 2 -> Hfl.Src_port (Binary.get_u16 r)
      | 3 -> Hfl.Dst_port (Binary.get_u16 r)
      | 4 -> Hfl.Proto (proto_of_u8 (Binary.get_u8 r))
      | n -> bad_tag "hfl field" n)

let w_path k p = Binary.str k (Config_tree.path_to_string p)
let r_path r = Config_tree.path_of_string (Binary.get_str r)

let role_to_u8 = function
  | Taxonomy.Configuring -> 0
  | Taxonomy.Supporting -> 1
  | Taxonomy.Reporting -> 2

let role_of_u8 = function
  | 0 -> Taxonomy.Configuring
  | 1 -> Taxonomy.Supporting
  | 2 -> Taxonomy.Reporting
  | n -> bad_tag "role" n

let w_chunk k (c : Chunk.t) =
  Binary.str k c.mb_kind;
  Binary.u8 k (role_to_u8 c.role);
  Binary.u8 k (match c.partition with Taxonomy.Per_flow -> 0 | Taxonomy.Shared -> 1);
  w_hfl k c.key;
  Binary.str k c.cipher

let r_chunk r : Chunk.t =
  let mb_kind = Binary.get_str r in
  let role = role_of_u8 (Binary.get_u8 r) in
  let partition =
    match Binary.get_u8 r with
    | 0 -> Taxonomy.Per_flow
    | 1 -> Taxonomy.Shared
    | n -> bad_tag "partition" n
  in
  let key = r_hfl r in
  let cipher = Binary.get_str r in
  { mb_kind; role; partition; key; cipher }

let w_flags k (f : Packet.tcp_flags) =
  Binary.u8 k
    ((if f.syn then 1 else 0)
    lor (if f.ack then 2 else 0)
    lor (if f.fin then 4 else 0)
    lor if f.rst then 8 else 0)

let r_flags r : Packet.tcp_flags =
  let b = Binary.get_u8 r in
  { syn = b land 1 <> 0; ack = b land 2 <> 0; fin = b land 4 <> 0; rst = b land 8 <> 0 }

let w_app k = function
  | Packet.Plain -> Binary.u8 k 0
  | Packet.Http_request { method_; host; uri } ->
    Binary.u8 k 1;
    Binary.str k method_;
    Binary.str k host;
    Binary.str k uri
  | Packet.Http_response { status } ->
    Binary.u8 k 2;
    Binary.uvarint k status

let r_app r =
  match Binary.get_u8 r with
  | 0 -> Packet.Plain
  | 1 ->
    let method_ = Binary.get_str r in
    let host = Binary.get_str r in
    Packet.Http_request { method_; host; uri = Binary.get_str r }
  | 2 -> Packet.Http_response { status = Binary.get_uvarint r }
  | n -> bad_tag "app" n

let w_payload k p =
  let tokens = Payload.tokens p in
  Binary.uvarint k (Array.length tokens);
  Array.iter (Binary.varint k) tokens;
  Binary.uvarint k (Payload.size_bytes p mod Payload.token_bytes)

let r_payload r =
  let n = Binary.get_uvarint r in
  let tokens = Array.init n (fun _ -> Binary.get_varint r) in
  Payload.of_tokens_trailing tokens ~trailing:(Binary.get_uvarint r)

let w_segment k = function
  | Packet.Literal p ->
    Binary.u8 k 0;
    w_payload k p
  | Packet.Shim { offset; len } ->
    Binary.u8 k 1;
    Binary.uvarint k offset;
    Binary.uvarint k len

let r_segment r =
  match Binary.get_u8 r with
  | 0 -> Packet.Literal (r_payload r)
  | 1 ->
    let offset = Binary.get_uvarint r in
    Packet.Shim { offset; len = Binary.get_uvarint r }
  | n -> bad_tag "segment" n

let w_body k = function
  | Packet.Raw p ->
    Binary.u8 k 0;
    w_payload k p
  | Packet.Encoded { cache_id; append_base; segments; orig } ->
    Binary.u8 k 1;
    Binary.varint k cache_id;
    Binary.varint k append_base;
    Binary.uvarint k (List.length segments);
    List.iter (w_segment k) segments;
    w_payload k orig

let r_body r =
  match Binary.get_u8 r with
  | 0 -> Packet.Raw (r_payload r)
  | 1 ->
    let cache_id = Binary.get_varint r in
    let append_base = Binary.get_varint r in
    let nseg = Binary.get_uvarint r in
    let segments = List.init nseg (fun _ -> r_segment r) in
    Packet.Encoded { cache_id; append_base; segments; orig = r_payload r }
  | n -> bad_tag "body" n

let w_packet k (p : Packet.t) =
  Binary.uvarint k p.id;
  Binary.f64 k (Openmb_sim.Time.to_seconds p.ts);
  Binary.u32 k (Addr.to_int p.src_ip);
  Binary.u32 k (Addr.to_int p.dst_ip);
  Binary.u16 k p.src_port;
  Binary.u16 k p.dst_port;
  Binary.u8 k (proto_to_u8 p.proto);
  w_flags k p.flags;
  w_app k p.app;
  w_body k p.body

let r_packet r : Packet.t =
  let id = Binary.get_uvarint r in
  let ts = Openmb_sim.Time.seconds (Binary.get_f64 r) in
  let src_ip = Addr.of_int (Binary.get_u32 r) in
  let dst_ip = Addr.of_int (Binary.get_u32 r) in
  let src_port = Binary.get_u16 r in
  let dst_port = Binary.get_u16 r in
  let proto = proto_of_u8 (Binary.get_u8 r) in
  let flags = r_flags r in
  let app = r_app r in
  { id; ts; src_ip; dst_ip; src_port; dst_port; proto; flags; app; body = r_body r }

let rec w_json k = function
  | Json.Null -> Binary.u8 k 0
  | Json.Bool b ->
    Binary.u8 k 1;
    Binary.u8 k (if b then 1 else 0)
  | Json.Int v ->
    Binary.u8 k 2;
    Binary.varint k v
  | Json.Float v ->
    Binary.u8 k 3;
    Binary.f64 k v
  | Json.String s ->
    Binary.u8 k 4;
    Binary.str k s
  | Json.List items ->
    Binary.u8 k 5;
    Binary.uvarint k (List.length items);
    List.iter (w_json k) items
  | Json.Assoc fields ->
    Binary.u8 k 6;
    Binary.uvarint k (List.length fields);
    List.iter
      (fun (name, v) ->
        Binary.str k name;
        w_json k v)
      fields

let rec r_json r =
  match Binary.get_u8 r with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Binary.get_u8 r <> 0)
  | 2 -> Json.Int (Binary.get_varint r)
  | 3 -> Json.Float (Binary.get_f64 r)
  | 4 -> Json.String (Binary.get_str r)
  | 5 ->
    let n = Binary.get_uvarint r in
    Json.List (List.init n (fun _ -> r_json r))
  | 6 ->
    let n = Binary.get_uvarint r in
    Json.Assoc
      (List.init n (fun _ ->
           let name = Binary.get_str r in
           (name, r_json r)))
  | n -> bad_tag "json" n

let w_string_list k l =
  Binary.uvarint k (List.length l);
  List.iter (Binary.str k) l

let r_string_list r =
  let n = Binary.get_uvarint r in
  List.init n (fun _ -> Binary.get_str r)

let w_json_list k l =
  Binary.uvarint k (List.length l);
  List.iter (w_json k) l

let r_json_list r =
  let n = Binary.get_uvarint r in
  List.init n (fun _ -> r_json r)

let request_write k { op; tid; req } =
  k.Binary.put_char binary_tag;
  Binary.uvarint k op;
  Binary.uvarint k tid;
  match req with
  | Get_config p ->
    Binary.u8 k 0;
    w_path k p
  | Set_config (p, vs) ->
    Binary.u8 k 1;
    w_path k p;
    w_json_list k vs
  | Del_config p ->
    Binary.u8 k 2;
    w_path k p
  | Get_support_perflow h ->
    Binary.u8 k 3;
    w_hfl k h
  | Put_support_perflow { seq; chunk } ->
    Binary.u8 k 4;
    Binary.uvarint k seq;
    w_chunk k chunk
  | Del_support_perflow h ->
    Binary.u8 k 5;
    w_hfl k h
  | Get_support_shared -> Binary.u8 k 6
  | Put_support_shared { seq; chunk } ->
    Binary.u8 k 7;
    Binary.uvarint k seq;
    w_chunk k chunk
  | Get_report_perflow h ->
    Binary.u8 k 8;
    w_hfl k h
  | Put_report_perflow { seq; chunk } ->
    Binary.u8 k 9;
    Binary.uvarint k seq;
    w_chunk k chunk
  | Del_report_perflow h ->
    Binary.u8 k 10;
    w_hfl k h
  | Get_report_shared -> Binary.u8 k 11
  | Put_report_shared { seq; chunk } ->
    Binary.u8 k 12;
    Binary.uvarint k seq;
    w_chunk k chunk
  | Get_stats h ->
    Binary.u8 k 13;
    w_hfl k h
  | Enable_events { codes; key } ->
    Binary.u8 k 14;
    w_string_list k codes;
    w_hfl k key
  | Disable_events { codes } ->
    Binary.u8 k 15;
    w_string_list k codes
  | Reprocess_packet { key; packet } ->
    Binary.u8 k 16;
    w_hfl k key;
    w_packet k packet
  | Put_batch { seq; chunks } ->
    Binary.u8 k 17;
    Binary.uvarint k seq;
    Binary.uvarint k (List.length chunks);
    List.iter (w_chunk k) chunks
  | Abort_perflow h ->
    Binary.u8 k 18;
    w_hfl k h

let request_read r =
  let op = Binary.get_uvarint r in
  let tid = Binary.get_uvarint r in
  let req =
    match Binary.get_u8 r with
    | 0 -> Get_config (r_path r)
    | 1 ->
      let p = r_path r in
      Set_config (p, r_json_list r)
    | 2 -> Del_config (r_path r)
    | 3 -> Get_support_perflow (r_hfl r)
    | 4 ->
      let seq = Binary.get_uvarint r in
      Put_support_perflow { seq; chunk = r_chunk r }
    | 5 -> Del_support_perflow (r_hfl r)
    | 6 -> Get_support_shared
    | 7 ->
      let seq = Binary.get_uvarint r in
      Put_support_shared { seq; chunk = r_chunk r }
    | 8 -> Get_report_perflow (r_hfl r)
    | 9 ->
      let seq = Binary.get_uvarint r in
      Put_report_perflow { seq; chunk = r_chunk r }
    | 10 -> Del_report_perflow (r_hfl r)
    | 11 -> Get_report_shared
    | 12 ->
      let seq = Binary.get_uvarint r in
      Put_report_shared { seq; chunk = r_chunk r }
    | 13 -> Get_stats (r_hfl r)
    | 14 ->
      let codes = r_string_list r in
      Enable_events { codes; key = r_hfl r }
    | 15 -> Disable_events { codes = r_string_list r }
    | 16 ->
      let key = r_hfl r in
      Reprocess_packet { key; packet = r_packet r }
    | 17 ->
      let seq = Binary.get_uvarint r in
      let n = Binary.get_uvarint r in
      Put_batch { seq; chunks = List.init n (fun _ -> r_chunk r) }
    | 18 -> Abort_perflow (r_hfl r)
    | n -> bad_tag "request" n
  in
  { op; tid; req }

let error_to_u8 : Errors.t -> int = function
  | Granularity_too_fine -> 0
  | Unknown_mb _ -> 1
  | Unknown_config_key _ -> 2
  | Illegal_operation _ -> 3
  | Bad_chunk _ -> 4
  | Op_failed _ -> 5
  | Timeout _ -> 6
  | Move_aborted _ -> 7

let error_arg : Errors.t -> string = function
  | Granularity_too_fine -> ""
  | Unknown_mb s | Unknown_config_key s | Illegal_operation s | Bad_chunk s
  | Op_failed s | Timeout s | Move_aborted s ->
    s

let w_error k e =
  Binary.u8 k (error_to_u8 e);
  Binary.str k (error_arg e)

let r_error r : Errors.t =
  let code = Binary.get_u8 r in
  let arg = Binary.get_str r in
  match code with
  | 0 -> Granularity_too_fine
  | 1 -> Unknown_mb arg
  | 2 -> Unknown_config_key arg
  | 3 -> Illegal_operation arg
  | 4 -> Bad_chunk arg
  | 5 -> Op_failed arg
  | 6 -> Timeout arg
  | 7 -> Move_aborted arg
  | n -> bad_tag "error" n

let w_stats k (s : Southbound.stats) =
  Binary.uvarint k s.perflow_support_chunks;
  Binary.uvarint k s.perflow_report_chunks;
  Binary.uvarint k s.perflow_support_bytes;
  Binary.uvarint k s.perflow_report_bytes;
  Binary.uvarint k s.shared_support_bytes;
  Binary.uvarint k s.shared_report_bytes

let r_stats r : Southbound.stats =
  let perflow_support_chunks = Binary.get_uvarint r in
  let perflow_report_chunks = Binary.get_uvarint r in
  let perflow_support_bytes = Binary.get_uvarint r in
  let perflow_report_bytes = Binary.get_uvarint r in
  let shared_support_bytes = Binary.get_uvarint r in
  {
    perflow_support_chunks;
    perflow_report_chunks;
    perflow_support_bytes;
    perflow_report_bytes;
    shared_support_bytes;
    shared_report_bytes = Binary.get_uvarint r;
  }

let w_entry k (e : Config_tree.entry) =
  w_path k e.path;
  w_json_list k e.values

let r_entry r : Config_tree.entry =
  let path = r_path r in
  { path; values = r_json_list r }

let w_event k = function
  | Event.Reprocess { key; packet } ->
    Binary.u8 k 0;
    w_hfl k key;
    w_packet k packet
  | Event.Introspect { code; key; info } ->
    Binary.u8 k 1;
    Binary.str k code;
    w_hfl k key;
    w_json k info

let r_event r =
  match Binary.get_u8 r with
  | 0 ->
    let key = r_hfl r in
    Event.Reprocess { key; packet = r_packet r }
  | 1 ->
    let code = Binary.get_str r in
    let key = r_hfl r in
    Event.Introspect { code; key; info = r_json r }
  | n -> bad_tag "event" n

let from_mb_write k = function
  | Reply { op; reply } ->
    k.Binary.put_char binary_tag;
    Binary.u8 k 0;
    Binary.uvarint k op;
    (match reply with
    | State_chunk c ->
      Binary.u8 k 0;
      w_chunk k c
    | End_of_state { count } ->
      Binary.u8 k 1;
      Binary.uvarint k count
    | Ack -> Binary.u8 k 2
    | Config_values es ->
      Binary.u8 k 3;
      Binary.uvarint k (List.length es);
      List.iter (w_entry k) es
    | Stats_reply s ->
      Binary.u8 k 4;
      w_stats k s
    | Op_error e ->
      Binary.u8 k 5;
      w_error k e
    | Batch_ack { seq; count; errors } ->
      Binary.u8 k 6;
      Binary.uvarint k seq;
      Binary.uvarint k count;
      Binary.uvarint k (List.length errors);
      List.iter
        (fun (i, e) ->
          Binary.uvarint k i;
          w_error k e)
        errors)
  | Event_msg ev ->
    k.Binary.put_char binary_tag;
    Binary.u8 k 1;
    w_event k ev

let from_mb_read r =
  match Binary.get_u8 r with
  | 0 ->
    let op = Binary.get_uvarint r in
    let reply =
      match Binary.get_u8 r with
      | 0 -> State_chunk (r_chunk r)
      | 1 -> End_of_state { count = Binary.get_uvarint r }
      | 2 -> Ack
      | 3 ->
        let n = Binary.get_uvarint r in
        Config_values (List.init n (fun _ -> r_entry r))
      | 4 -> Stats_reply (r_stats r)
      | 5 -> Op_error (r_error r)
      | 6 ->
        let seq = Binary.get_uvarint r in
        let count = Binary.get_uvarint r in
        let n_err = Binary.get_uvarint r in
        Batch_ack
          {
            seq;
            count;
            errors =
              List.init n_err (fun _ ->
                  let i = Binary.get_uvarint r in
                  (i, r_error r));
          }
      | n -> bad_tag "reply" n
    in
    Reply { op; reply }
  | 1 -> Event_msg (r_event r)
  | n -> bad_tag "from_mb" n

(* ------------------------------------------------------------------ *)
(* Wire strings                                                        *)
(* ------------------------------------------------------------------ *)

let consumed what (r : Binary.reader) =
  if r.pos <> String.length r.src then
    raise
      (Binary.Decode_error
         (Printf.sprintf "Message: %d trailing bytes after %s"
            (String.length r.src - r.pos) what))

let to_wire write_binary to_json ~framing v =
  match framing with
  | Framing.Json -> Json.to_string (to_json v)
  | Framing.Binary ->
    let buf = Buffer.create 128 in
    write_binary (Binary.buffer_sink buf) v;
    Buffer.contents buf

let of_wire read_binary of_json what s =
  if String.length s > 0 && s.[0] = binary_tag then begin
    let r = Binary.reader ~pos:1 s in
    let v = read_binary r in
    consumed what r;
    v
  end
  else of_json (Json.of_string s)

let request_to_wire ?(framing = Framing.Json) m =
  to_wire request_write request_to_json ~framing m

let request_of_wire s = of_wire request_read request_of_json "request" s

let from_mb_to_wire ?(framing = Framing.Json) m =
  to_wire from_mb_write from_mb_to_json ~framing m

let from_mb_of_wire s = of_wire from_mb_read from_mb_of_json "reply/event" s

let chunk_to_wire c =
  let buf = Buffer.create 128 in
  w_chunk (Binary.buffer_sink buf) c;
  Binary.frame (Buffer.contents buf)

let chunk_of_wire s =
  let r = Binary.reader s in
  let body = Binary.unframe r in
  consumed "chunk frame" r;
  let br = Binary.reader body in
  let c = r_chunk br in
  consumed "chunk" br;
  c

(* ------------------------------------------------------------------ *)
(* Wire sizes                                                          *)
(* ------------------------------------------------------------------ *)

(* JSON framing overhead covering the op id, type tag and JSON
   punctuation.  State- and packet-bearing messages avoid materializing
   the (large) JSON text on the hot path; everything else measures the
   actual encoding.  The binary sizes are exact: the writers run
   against a counting sink (no bytes materialized), plus the u32
   length prefix of the stream frame. *)
let json_overhead = 48

let counted write v =
  let k, count = Binary.counting_sink () in
  write k v;
  4 + count ()

let request_wire_bytes ?(framing:Framing.t = Framing.Json) m =
  match framing with
  | Framing.Binary -> counted request_write m
  | Framing.Json -> (
    match m.req with
    | Put_support_perflow { chunk = c; _ }
    | Put_support_shared { chunk = c; _ }
    | Put_report_perflow { chunk = c; _ }
    | Put_report_shared { chunk = c; _ } ->
      json_overhead + Chunk.size_bytes c + Hfl.string_length c.key
    | Put_batch { chunks; _ } ->
      (* One message envelope plus, per chunk, the chunk object's own
         punctuation — sized like a single put so batching N chunks
         saves exactly N-1 envelopes on the simulated channel. *)
      List.fold_left
        (fun acc c ->
          acc + json_overhead + Chunk.size_bytes c + Hfl.string_length c.key)
        json_overhead chunks
    | Reprocess_packet { key; packet } ->
      json_overhead + Packet.wire_bytes packet
      + Hfl.string_length key
    | Get_config _ | Set_config _ | Del_config _ | Get_support_perflow _
    | Del_support_perflow _ | Get_support_shared | Get_report_perflow _
    | Del_report_perflow _ | Get_report_shared | Get_stats _ | Enable_events _
    | Disable_events _ | Abort_perflow _ ->
      Json.wire_size (request_to_json m))

let reply_wire_bytes ?(framing:Framing.t = Framing.Json) m =
  match framing with
  | Framing.Binary -> counted from_mb_write m
  | Framing.Json -> (
    match m with
    | Reply { reply = State_chunk c; _ } ->
      json_overhead + Chunk.size_bytes c + Hfl.string_length c.key
    | Event_msg ev -> json_overhead + Event.wire_bytes ev
    | Reply
        {
          op;
          reply =
            ( End_of_state _ | Ack | Config_values _ | Stats_reply _ | Op_error _
            | Batch_ack _ ) as reply;
        } ->
      Json.wire_size (from_mb_to_json (Reply { op; reply })))

(* ------------------------------------------------------------------ *)
(* Descriptions                                                        *)
(* ------------------------------------------------------------------ *)

(* Constructor name as a static literal: span names intern these, so
   stamping a span from a request allocates nothing after first use. *)
let request_name = function
  | Get_config _ -> "getConfig"
  | Set_config _ -> "setConfig"
  | Del_config _ -> "delConfig"
  | Get_support_perflow _ -> "getSupportPerflow"
  | Put_support_perflow _ -> "putSupportPerflow"
  | Del_support_perflow _ -> "delSupportPerflow"
  | Get_support_shared -> "getSupportShared"
  | Put_support_shared _ -> "putSupportShared"
  | Get_report_perflow _ -> "getReportPerflow"
  | Put_report_perflow _ -> "putReportPerflow"
  | Del_report_perflow _ -> "delReportPerflow"
  | Get_report_shared -> "getReportShared"
  | Put_report_shared _ -> "putReportShared"
  | Get_stats _ -> "getStats"
  | Enable_events _ -> "enableEvents"
  | Disable_events _ -> "disableEvents"
  | Reprocess_packet _ -> "reprocessPacket"
  | Put_batch _ -> "putBatch"
  | Abort_perflow _ -> "abortPerflow"

let describe_request req =
  let name, _ = request_body_to_json req in
  let detail =
    match req with
    | Get_config p | Set_config (p, _) | Del_config p -> Config_tree.path_to_string p
    | Get_support_perflow h | Del_support_perflow h | Get_report_perflow h
    | Del_report_perflow h | Get_stats h | Abort_perflow h ->
      Hfl.to_string h
    | Put_support_perflow { chunk = c; _ }
    | Put_support_shared { chunk = c; _ }
    | Put_report_perflow { chunk = c; _ }
    | Put_report_shared { chunk = c; _ } ->
      Chunk.describe c
    | Get_support_shared | Get_report_shared -> ""
    | Enable_events { codes; _ } | Disable_events { codes } -> String.concat "," codes
    | Reprocess_packet { packet; _ } -> Packet.flow_label packet
    | Put_batch { chunks; _ } ->
      Printf.sprintf "n=%d (%dB)" (List.length chunks)
        (List.fold_left (fun acc c -> acc + Chunk.size_bytes c) 0 chunks)
  in
  if detail = "" then name else name ^ " " ^ detail

let describe_reply = function
  | State_chunk c -> "stateChunk " ^ Chunk.describe c
  | End_of_state { count } -> Printf.sprintf "endOfState count=%d" count
  | Ack -> "ack"
  | Config_values es -> Printf.sprintf "configValues n=%d" (List.length es)
  | Stats_reply _ -> "stats"
  | Op_error e -> "error " ^ Errors.to_string e
  | Batch_ack { seq; count; errors } ->
    Printf.sprintf "batchAck seq=%d count=%d errors=%d" seq count (List.length errors)
