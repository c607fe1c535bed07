module Syntax = Qsmt_regex.Syntax
module Unroll = Qsmt_regex.Unroll
module Dfa = Qsmt_regex.Dfa
module Ascii7 = Qsmt_util.Ascii7

type t =
  | Equals of string
  | Concat of string list
  | Contains of { length : int; substring : string }
  | Includes of { haystack : string; needle : string }
  | Index_of of { length : int; substring : string; index : int }
  | Has_length of { num_chars : int; target_length : int }
  | Replace_all of { source : string; find : char; replace : char }
  | Replace_first of { source : string; find : char; replace : char }
  | Reverse of string
  | Palindrome of { length : int }
  | Regex of { pattern : Syntax.t; length : int }

type value = Str of string | Pos of int option

let ascii_ok s = String.for_all (fun c -> Char.code c <= 127) s

let validate = function
  | Equals s | Reverse s ->
    if ascii_ok s then Ok () else Error "string contains non-7-bit characters"
  | Concat parts ->
    if List.for_all ascii_ok parts then Ok () else Error "string contains non-7-bit characters"
  | Contains { length; substring } ->
    if not (ascii_ok substring) then Error "substring contains non-7-bit characters"
    else if length < 0 then Error "negative length"
    else if String.length substring > length then Error "substring longer than the string"
    else if String.length substring = 0 then Error "empty substring"
    else Ok ()
  | Includes { haystack; needle } ->
    if not (ascii_ok haystack && ascii_ok needle) then Error "non-7-bit characters"
    else if String.length needle = 0 then Error "empty needle"
    else if String.length needle > String.length haystack then
      Error "needle longer than haystack"
    else Ok ()
  | Index_of { length; substring; index } ->
    if not (ascii_ok substring) then Error "substring contains non-7-bit characters"
    else if length < 0 then Error "negative length"
    else if String.length substring = 0 then Error "empty substring"
    else if index < 0 || index + String.length substring > length then
      Error "substring does not fit at the requested index"
    else Ok ()
  | Has_length { num_chars; target_length } ->
    if num_chars < 0 then Error "negative num_chars"
    else if target_length < 0 || target_length > num_chars then
      Error "target_length outside [0, num_chars]"
    else Ok ()
  | Replace_all { source; find; replace } | Replace_first { source; find; replace } ->
    if not (ascii_ok source) then Error "source contains non-7-bit characters"
    else if Char.code find > 127 || Char.code replace > 127 then
      Error "replacement characters must be 7-bit"
    else Ok ()
  | Palindrome { length } -> if length < 0 then Error "negative length" else Ok ()
  | Regex { pattern; length } ->
    if length < 0 then Error "negative length"
    else begin
      match Unroll.to_position_sets pattern ~len:length with
      | Ok _ -> Ok ()
      | Error msg -> Error msg
    end

let validate_exn c =
  match validate c with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Constr: invalid constraint: " ^ msg)

let num_vars c =
  validate_exn c;
  match c with
  | Equals s | Reverse s -> 7 * String.length s
  | Concat parts -> 7 * List.fold_left (fun acc s -> acc + String.length s) 0 parts
  | Contains { length; _ } | Index_of { length; _ } | Palindrome { length } | Regex { length; _ }
    ->
    7 * length
  | Includes { haystack; needle } -> String.length haystack - String.length needle + 1
  | Has_length { num_chars; _ } -> 7 * num_chars
  | Replace_all { source; _ } | Replace_first { source; _ } -> 7 * String.length source

let regex_checker dfa ~length = function
  | Str out -> String.length out = length && Dfa.matches dfa out
  | Pos _ -> false

let checker c =
  (* Everything that depends on the constraint alone — target strings,
     the regex DFA — is computed here, once; the returned closure only
     reads it. *)
  let equals target = function Str out -> String.equal out target | Pos _ -> false in
  let on_str p = function Str out -> p out | Pos _ -> false in
  match c with
  | Equals target -> equals target
  | Concat parts -> equals (Semantics.concat parts)
  | Contains { length; substring } ->
    on_str (fun out -> String.length out = length && Semantics.contains out ~sub:substring)
  | Includes { haystack; needle } -> (
    function
    | Pos (Some i) -> Semantics.occurs_at haystack ~sub:needle i
    | Pos None | Str _ -> false)
  | Index_of { length; substring; index } ->
    on_str (fun out -> String.length out = length && Semantics.occurs_at out ~sub:substring index)
  | Has_length { num_chars; target_length } ->
    (* Paper bit semantics: first 7·L bits set, remainder clear — i.e.
       target_length DEL characters followed by NULs. *)
    if target_length < 0 || target_length > num_chars then fun _ -> false
    else equals (String.init num_chars (fun i -> if i < target_length then '\127' else '\000'))
  | Replace_all { source; find; replace } -> equals (Semantics.replace_all source ~find ~replace)
  | Replace_first { source; find; replace } ->
    equals (Semantics.replace_first source ~find ~replace)
  | Reverse source -> equals (Semantics.reverse source)
  | Palindrome { length } ->
    on_str (fun out -> String.length out = length && Semantics.is_palindrome out)
  | Regex { pattern; length } -> regex_checker (Dfa.of_syntax pattern) ~length

let verify c value = checker c value

let describe = function
  | Equals s -> Printf.sprintf "generate the string %S" s
  | Concat parts -> Printf.sprintf "concatenate %s" (String.concat " + " (List.map (Printf.sprintf "%S") parts))
  | Contains { length; substring } ->
    Printf.sprintf "generate a length-%d string containing %S" length substring
  | Includes { haystack; needle } -> Printf.sprintf "find %S within %S" needle haystack
  | Index_of { length; substring; index } ->
    Printf.sprintf "generate a length-%d string with %S at index %d" length substring index
  | Has_length { num_chars; target_length } ->
    Printf.sprintf "check a %d-char string has length %d (unary bits)" num_chars target_length
  | Replace_all { source; find; replace } ->
    Printf.sprintf "replace all %C with %C in %S" find replace source
  | Replace_first { source; find; replace } ->
    Printf.sprintf "replace first %C with %C in %S" find replace source
  | Reverse s -> Printf.sprintf "reverse %S" s
  | Palindrome { length } -> Printf.sprintf "generate a palindrome of length %d" length
  | Regex { pattern; length } ->
    Printf.sprintf "generate a length-%d match of /%s/" length (Syntax.to_string pattern)

let pp_value ppf = function
  | Str s ->
    let shown = String.map Ascii7.clamp_printable s in
    Format.fprintf ppf "%S" shown
  | Pos (Some i) -> Format.fprintf ppf "position %d" i
  | Pos None -> Format.fprintf ppf "no position"
