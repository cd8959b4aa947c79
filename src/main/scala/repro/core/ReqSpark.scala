package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Encoder, Encoders, SparkSession}
import org.apache.spark.sql.catalyst.encoders.{AgnosticEncoders, Codec}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions.{col, udaf, udf}

/** Spark integration for the REQ sketch.
  *
  * The paper's headline systems claim is full mergeability: "summarizing
  * each piece separately and then merging the results" preserves the
  * accuracy/space guarantees. This module makes that executable on Spark in
  * the two idiomatic ways:
  *
  *  1. [[ReqSketchAggregator]] — a typed `Aggregator` usable as a UDAF in
  *     DataFrame/SQL `GROUP BY` queries (Catalyst drives partial aggregation,
  *     so `merge` runs across partitions exactly as Algorithm 4 intends);
  *  2. [[ReqSpark.sketchColumn]] — explicit per-partition sketches combined
  *     up a depth-d merge tree of `treeReduce`'s shape, which realizes an
  *     *arbitrary merge tree* (the Appendix C setting) and gives each
  *     partition an independent coin seed. Every merge runs in a fixed order,
  *     so a fixed seed gives the same sketch on every run.
  *
  * The UDAF's output is the sketch in its versioned binary wire format
  * ([[ReqSketch.toBytes]]: a header, then each level as one sorted run of
  * bit-packed key gaps, about 5.3 bytes per stored item on uniform doubles); use
  * [[ReqSpark.quantileUdf]] / [[ReqSketch.fromBytes]] to query it. The same
  * bytes are all Spark ever moves for a sketch: the aggregation buffer's
  * encoder stores them in a binary column, and `sketchColumn` ships them
  * through its `groupByKey` shuffle and `collect()`. A sketch is never
  * Java-serialized.
  */
final class ReqSketchAggregator(
    eps: Double,
    delta: Double,
    profile: ParamProfile,
    seed: Long
) extends Aggregator[java.lang.Double, ReqSketch, Array[Byte]] {

  /** A buffer seeded per partition through `ReqSpark.partitionSeed`, as
    * `sketchColumn` seeds its sketches; seed 0 still means entropy.
    */
  override def zero: ReqSketch =
    ReqSketch(eps, delta, profile, ReqSpark.partitionSeed(seed, org.apache.spark.TaskContext.getPartitionId()))

  /** Skips null, as `sketchColumn` does; `update` skips NaN. */
  override def reduce(b: ReqSketch, x: java.lang.Double): ReqSketch = { if (x != null) b.update(x); b }

  override def merge(a: ReqSketch, b: ReqSketch): ReqSketch = a.merge(b)

  override def finish(r: ReqSketch): Array[Byte] = ReqSketch.toBytes(r)

  /** The buffer as one binary column of its wire bytes. */
  override def bufferEncoder: Encoder[ReqSketch] = AgnosticEncoders.TransformingEncoder(
    reflect.classTag[ReqSketch], AgnosticEncoders.BinaryEncoder, () => ReqSpark.WireCodec)

  override def outputEncoder: Encoder[Array[Byte]] = Encoders.BINARY
}

object ReqSpark {

  /** A sketch's one serialized form, as the UDAF buffer's encoder applies it. */
  private[core] object WireCodec extends Codec[ReqSketch, Array[Byte]] {
    override def encode(s: ReqSketch): Array[Byte] = ReqSketch.toBytes(s)
    override def decode(b: Array[Byte]): ReqSketch = ReqSketch.fromBytes(b)
  }

  /** Mix a base seed with a partition id into a well-spread per-partition
    * seed (the SplitMix64 output for `seed` after `pid + 1` steps), keeping
    * partition sketches independent yet reproducible.
    */
  def mixSeed(seed: Long, pid: Int): Long = {
    val m = ReqSketch.scramble(seed + ReqSketch.Gamma * pid)
    if (m == 0) 1 else m // 0 means "entropy" to ReqSketch; keep determinism
  }

  /** The coin seed of partition `pid`'s sketch: `mixSeed`, except that a
    * base seed of 0 stays 0 (entropy).
    */
  private[core] def partitionSeed(seed: Long, pid: Int): Long = if (seed == 0) 0L else mixSeed(seed, pid)

  /** Build one REQ sketch for a numeric column: one sketch per partition
    * (seeded independently), combined via a depth-`depth` tree of Algorithm-4
    * merges. Nulls/NaNs are dropped. The column is read as Catalyst rows
    * (`queryExecution.toRdd`), with no conversion to `Row`. Each sketch
    * crosses the shuffle and `collect()` as its `toBytes` array, keyed by
    * its partition or group index.
    *
    * The tree has `treeAggregate`'s shape: with P partitions and scale
    * s = max(⌈P^(1/depth)⌉, 2), while P > s + ⌈P/s⌉ the sketches of indices
    * i ≡ g (mod P/s) merge, in index order, into sketch g of the next level.
    * The driver folds the last level in index order. Unlike `treeReduce`,
    * whose merges follow task completion, the result depends only on the
    * partitions and `seed`. It runs as one Spark job.
    */
  def sketchColumn(df: DataFrame,
                   column: String,
                   eps: Double = 0.01,
                   delta: Double = 0.05,
                   profile: ParamProfile = Practical,
                   seed: Long = 0L,
                   depth: Int = 2): ReqSketch = {
    val rows = df.select(col(column).cast("double")).queryExecution.toRdd
    var sketches: RDD[(Int, Array[Byte])] = rows.mapPartitionsWithIndex { (pid, it) =>
      val s = ReqSketch(eps, delta, profile, partitionSeed(seed, pid))
      it.foreach(row => if (!row.isNullAt(0)) s.update(row.getDouble(0))) // update skips NaN
      Iterator.single((pid, ReqSketch.toBytes(s)))
    }
    var groups = sketches.getNumPartitions
    val scale = math.max(math.ceil(math.pow(groups, 1.0 / math.max(1, depth))).toInt, 2)
    while (groups > scale + math.ceil(groups.toDouble / scale)) {
      groups /= scale
      val g = groups
      // Key g lands in partition g, so each level's keys are its partition indices.
      sketches = sketches.map { case (i, b) => (i % g, (i, b)) }
        .groupByKey(new HashPartitioner(g))
        .mapValues(bs => ReqSketch.toBytes(mergeInOrder(bs)))
    }
    // Every partition emits exactly one sketch.
    if (groups == 0) ReqSketch(eps, delta, profile, seed)
    else mergeInOrder(sketches.collect())
  }

  /** Decodes `(index, bytes)` sketches one at a time and merges them in index order. */
  private def mergeInOrder(sketches: Iterable[(Int, Array[Byte])]): ReqSketch =
    sketches.toSeq.sortBy(_._1).iterator.map(p => ReqSketch.fromBytes(p._2)).reduce(_ merge _)

  /** UDAF over a double column returning the serialized sketch; null and
    * NaN rows are skipped. Register with `spark.udf.register(name,
    * reqUdaf(...))` for SQL use.
    */
  def reqUdaf(eps: Double = 0.01,
              delta: Double = 0.05,
              profile: ParamProfile = Practical,
              seed: Long = 0L): org.apache.spark.sql.expressions.UserDefinedFunction =
    udaf(new ReqSketchAggregator(eps, delta, profile, seed), Encoders.DOUBLE)

  /** UDF extracting a φ-quantile from a serialized sketch column; NULL for
    * a NULL sketch. A φ outside (0, 1] is refused here, not by the first
    * sketch a task reads.
    */
  def quantileUdf(phi: Double): org.apache.spark.sql.expressions.UserDefinedFunction = {
    require(phi > 0 && phi <= 1, s"phi must be in (0,1], got $phi")
    udf((bytes: Array[Byte]) => Option(bytes).map(ReqSketch.fromBytes(_).quantile(phi)))
  }

  /** UDF extracting the estimated rank of `y` from a serialized sketch;
    * NULL for a NULL sketch.
    */
  def rankUdf(y: Double): org.apache.spark.sql.expressions.UserDefinedFunction =
    udf((bytes: Array[Byte]) => Option(bytes).map(ReqSketch.fromBytes(_).rank(y)))

  /** Registers the sketch UDAF under `name` for SQL use. Query its output
    * with `quantileUdf`/`rankUdf` or `ReqSketch.fromBytes`.
    */
  def register(spark: SparkSession,
               name: String = "req_sketch",
               eps: Double = 0.01,
               delta: Double = 0.05,
               profile: ParamProfile = Practical,
               seed: Long = 0L): Unit =
    spark.udf.register(name, reqUdaf(eps, delta, profile, seed))
}
