module Value = Ghost_kernel.Value
module Date = Ghost_kernel.Date
module Rng = Ghost_kernel.Rng
module Zipf = Ghost_kernel.Zipf
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation
module Parser = Ghost_sql.Parser
module Bind = Ghost_sql.Bind

type scale = {
  doctors : int;
  patients : int;
  medicines : int;
  visits : int;
  prescriptions : int;
  theta : float;
}

let scale_with_prescriptions n =
  {
    doctors = max 3 (n / 200);
    patients = max 5 (n / 20);
    medicines = max 5 (n / 100);
    visits = max 5 (n / 4);
    prescriptions = n;
    theta = 0.8;
  }

let tiny = scale_with_prescriptions 400
let small = scale_with_prescriptions 10_000
let medium = scale_with_prescriptions 100_000
let paper = scale_with_prescriptions 1_000_000

let ddl = {|
CREATE TABLE Doctor (
  DocID INTEGER PRIMARY KEY,
  Name CHAR(20),
  Speciality CHAR(20),
  Zip INTEGER,
  Country CHAR(16));

CREATE TABLE Patient (
  PatID INTEGER PRIMARY KEY,
  Name CHAR(20) HIDDEN,
  Age INTEGER,
  BodyMassIndex FLOAT HIDDEN,
  Country CHAR(16));

CREATE TABLE Medicine (
  MedID INTEGER PRIMARY KEY,
  Name CHAR(20),
  Effect CHAR(20),
  Type CHAR(16));

CREATE TABLE Visit (
  VisID INTEGER PRIMARY KEY,
  Date DATE,
  Purpose CHAR(20) HIDDEN,
  DocID INTEGER REFERENCES Doctor(DocID) HIDDEN,
  PatID INTEGER REFERENCES Patient(PatID) HIDDEN);

CREATE TABLE Prescription (
  PreID INTEGER PRIMARY KEY,
  Quantity INTEGER HIDDEN,
  Frequency INTEGER,
  WhenWritten DATE HIDDEN,
  MedID INTEGER REFERENCES Medicine(MedID) HIDDEN,
  VisID INTEGER REFERENCES Visit(VisID) HIDDEN);
|}

let schema () = Bind.ddl_to_schema (Parser.parse_ddl ddl)

let date_lo = Date.of_ymd 2004 1 1
let date_hi = Date.of_ymd 2006 12 31

let date_cutoff_for_selectivity s =
  if s < 0. || s > 1. then invalid_arg "Medical.date_cutoff_for_selectivity";
  let span = date_hi - date_lo in
  date_hi - int_of_float (Float.round (s *. Float.of_int span))

let purposes = [|
  "Checkup"; "Diabetes"; "Hypertension"; "Influenza"; "Sclerosis"; "Asthma";
  "Migraine"; "Fracture"; "Allergy"; "Bronchitis"; "Arthritis"; "Anemia";
  "Depression"; "Obesity"; "Insomnia"; "Dermatitis";
|]

let medicine_types = [|
  "Analgesic"; "Antibiotic"; "Antiviral"; "Antihistamine"; "Sedative";
  "Stimulant"; "Vaccine"; "Steroid"; "Diuretic"; "Antiseptic";
|]

let countries = [|
  "France"; "USA"; "Spain"; "Germany"; "Italy"; "Austria"; "Belgium";
  "Portugal"; "Greece"; "Norway";
|]

let specialities = [|
  "General"; "Cardiology"; "Endocrinology"; "Neurology"; "Oncology";
  "Pediatrics"; "Radiology"; "Surgery";
|]

let effects = [|
  "PainRelief"; "CuresInfection"; "LowersSugar"; "Calming"; "AntiViral";
  "Immunity"; "AntiInflammatory"; "Hydration";
|]

let prescriptions rng scale ~first n =
  List.init n (fun i ->
    [|
      Value.Int (first + i);
      Value.Int (Rng.int_in rng 1 10);
      Value.Int (Rng.int_in rng 1 4);
      Value.Date (Rng.int_in rng date_lo date_hi);
      Value.Int (1 + Rng.int rng scale.medicines);
      Value.Int (1 + Rng.int rng scale.visits);
    |])

(* A pronounceable-ish deterministic name from an id. *)
let name_of prefix id = Printf.sprintf "%s-%05d" prefix id

let generate ?(seed = 20070923) scale =
  let rng = Rng.create seed in
  let zipf_pick (z : Zipf.t) rng (values : string array) =
    values.((Zipf.sample z rng - 1) mod Array.length values)
  in
  let z_country = Zipf.create ~n:(Array.length countries) ~theta:scale.theta in
  let z_purpose = Zipf.create ~n:(Array.length purposes) ~theta:scale.theta in
  let z_type = Zipf.create ~n:(Array.length medicine_types) ~theta:scale.theta in
  let doctors =
    List.init scale.doctors (fun i ->
      let id = i + 1 in
      [|
        Value.Int id;
        Value.Str (name_of "Dr" id);
        Value.Str specialities.(Rng.int rng (Array.length specialities));
        Value.Int (10000 + Rng.int rng 89999);
        Value.Str (zipf_pick z_country rng countries);
      |])
  in
  let patients =
    List.init scale.patients (fun i ->
      let id = i + 1 in
      [|
        Value.Int id;
        Value.Str (name_of "Pat" id);
        Value.Int (Rng.int_in rng 1 99);
        Value.Float (15. +. Rng.float rng 30.);
        Value.Str (zipf_pick z_country rng countries);
      |])
  in
  let medicines =
    List.init scale.medicines (fun i ->
      let id = i + 1 in
      [|
        Value.Int id;
        Value.Str (name_of "Med" id);
        Value.Str effects.(Rng.int rng (Array.length effects));
        Value.Str (zipf_pick z_type rng medicine_types);
      |])
  in
  let visits =
    List.init scale.visits (fun i ->
      let id = i + 1 in
      [|
        Value.Int id;
        Value.Date (Rng.int_in rng date_lo date_hi);
        Value.Str (zipf_pick z_purpose rng purposes);
        Value.Int (1 + Rng.int rng scale.doctors);
        Value.Int (1 + Rng.int rng scale.patients);
      |])
  in
  let prescriptions = prescriptions rng scale ~first:1 scale.prescriptions in
  [
    ("Doctor", doctors);
    ("Patient", patients);
    ("Medicine", medicines);
    ("Visit", visits);
    ("Prescription", prescriptions);
  ]
