package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, count, lit, sum, when}

/** Exact ranks computed in Spark, in one aggregation pass (a conditional
  * sum per query — no joins, no windows, so it stays cheap for a few dozen
  * queries over millions of rows). `ExactRankSpec` checks it against
  * `ExactRank.ranksLocal` and its SQL shape against DuckDB.
  */
object SparkExactRank {

  /** Exact ranks of `queries` within `df(column)` (nulls dropped). */
  def ranks(df: DataFrame, column: String, queries: Array[Double]): Array[Long] = {
    if (queries.isEmpty) return Array.empty
    val c = col(column).cast("double")
    val aggs = queries.zipWithIndex.map { case (q, i) =>
      sum(when(c <= q, 1L).otherwise(0L)).alias(s"r$i")
    }
    val row = df.na.drop(Seq(column)).agg(aggs.head, aggs.tail.toIndexedSeq: _*).head()
    queries.indices.map(i => if (row.isNullAt(i)) 0L else row.getLong(i)).toArray
  }

  /** Exact count of non-null rows — sanity anchor for `ranks`. */
  def total(df: DataFrame, column: String): Long =
    df.na.drop(Seq(column)).agg(count(lit(1)).alias("n")).head().getLong(0)
}
