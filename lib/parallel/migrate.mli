(** Particle migration between blocks.

    After [Push.advance], particles that hit a [Domain] face have been
    turned into movers: stopped at the face (first ghost layer) with
    their unconsumed displacement, packed 13 Float32 values each in a
    [Push.Movers] buffer.  Migration proceeds axis by axis (x, then y,
    then z): movers in an axis ghost are copied into the migrate staging
    buffer of the neighbour block while the rest compact in place.  A
    neighbour on the same rank finishes them straight from that buffer;
    a remote one receives them in its port's ring buffer.  On arrival
    the axis cell is rebased to the receiving block's own grid (a mover
    travelling toward lo lands in the receiver's last cell along the
    axis, toward hi in its first — blocks may differ in size), and the
    receiver finishes their moves, depositing the remaining current
    segments.  A finished move may re-emit the mover toward a later
    axis, picked up by the next phase.  The staging buffer is the packed
    mover array itself (no boxing, no per-message allocation).

    Must run {e before} the ghost-current fold (finished moves deposit
    into ghost slots of the receiving block).  Collective across the
    ranks owning adjacent blocks, even with no outbound movers.  The
    targets' mover buffers are consumed: they are empty when
    [exchange] returns. *)

type stats = {
  sent : int;
  received : int;
  settled : int;   (** finished and appended locally *)
  absorbed : int;  (** finished into an absorbing wall *)
}

(** One species' state on one owned block; [bc] faces carry neighbour
    {e block} ids.  The finished movers' remaining deposition goes into
    [accum], the step's current accumulator (pass the one the pushes
    used).  A refluxing face's draws need no generator: they are a pure
    function of the mover's bits and the wall (see {!Vpic_particle.Push}). *)
type target = {
  id : int;
  bc : Vpic_grid.Bc.t;
  species : Vpic_particle.Species.t;
  fields : Vpic_field.Em_field.t;
  accum : Vpic_particle.Accumulator.t;
  movers : Vpic_particle.Push.Movers.t;  (** pending buffer, consumed *)
}

(** [targets] is indexed by block id ([Some] = owned on this rank).
    An arriving batch that does not decode (a length that is not a whole
    number of movers, or a mover outside its receiving block) raises
    [Vpic_particle.Push.Movers.Corrupt] before any of it is finished. *)
val exchange : Exchange.t -> targets:target option array -> stats
