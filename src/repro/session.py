"""The SparkSession builder shared by the spark-submit jobs, the tests
and the benchmark, so all of them run the same Spark configuration.

Master and driver memory are read when the JVM launches, so they come
from ``spark-submit`` or ``PYSPARK_SUBMIT_ARGS``, not from here.
"""
import os

from pyspark.sql import SparkSession


def get_session(app_name: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
